//! The JSON writer every [`Serialize`] impl writes into.
//!
//! The per-token methods are `#[inline]`: the derived impls live in the
//! crates that derive them, so without it each token would be an
//! out-of-line call across a crate boundary. Integers are written digit
//! by digit from a stack buffer, and a string with nothing to escape is
//! copied whole after one scan. Derived impls write their struct keys
//! and unit-variant tags through [`MapSerializer::field_literal`] and
//! [`Serializer::str_literal`], as literals the derive has already
//! quoted, so a key costs one copy and no escape scan.

pub use crate::{Error, Serialize};

use std::fmt::Write as _;

/// Writes JSON text into an owned `String`, either compact or
/// two-space-indented ("pretty"). The two modes differ only in the
/// whitespace between tokens.
pub struct Serializer {
    out: String,
    pretty: bool,
    /// Open sequences and maps around the write position.
    depth: usize,
}

impl Serializer {
    /// A writer for compact JSON.
    #[inline]
    pub fn compact() -> Serializer {
        Serializer {
            out: String::new(),
            pretty: false,
            depth: 0,
        }
    }

    /// A writer for human-readable, two-space-indented JSON.
    #[inline]
    pub fn pretty() -> Serializer {
        Serializer {
            pretty: true,
            ..Serializer::compact()
        }
    }

    /// The text written so far.
    #[inline]
    pub fn into_string(self) -> String {
        self.out
    }

    /// Writes `null`.
    #[inline]
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes a boolean.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Writes a signed integer.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        if v < 0 {
            self.out.push('-');
        }
        self.u64(v.unsigned_abs());
    }

    /// Writes an unsigned integer.
    #[inline]
    pub fn u64(&mut self, mut v: u64) {
        // u64::MAX has 20 digits; they fill the buffer from the end.
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        for &d in &digits[start..] {
            self.out.push(char::from(d));
        }
    }

    /// Writes a float: integral values keep a `.0`, and non-finite values
    /// become `null` (JSON has no NaN or infinity).
    pub fn f64(&mut self, v: f64) {
        if v.is_nan() || v.is_infinite() {
            self.null();
        } else if v == v.trunc() && v.abs() < 1e15 {
            let _ = write!(self.out, "{v:.1}");
        } else {
            let _ = write!(self.out, "{v}");
        }
    }

    /// Writes a string, escaping quotes, backslashes and control
    /// characters.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        if s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
            self.escaped(s);
        } else {
            self.out.push_str(s);
        }
        self.out.push('"');
    }

    /// Writes the body of a string that holds something to escape.
    fn escaped(&mut self, s: &str) {
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // `i` is an ASCII byte, so both slice ends are char boundaries.
            self.out.push_str(s.get(run..i).unwrap_or_default());
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{b:04x}");
            } else {
                self.out.push_str(escape);
            }
            run = i + 1;
        }
        self.out.push_str(s.get(run..).unwrap_or_default());
    }

    /// Writes a string literal that arrives already quoted, as
    /// `"\"Mcc\""`, with one copy and no escape scan.
    ///
    /// For the derive, which writes each unit-variant tag through it.
    /// The caller guarantees that `quoted` is one JSON string token: a
    /// `"`, text with nothing to escape, and a closing `"`. Anything
    /// else writes invalid JSON.
    #[inline]
    pub fn str_literal(&mut self, quoted: &'static str) {
        self.out.push_str(quoted);
    }

    /// Opens a sequence; write its elements through the returned handle,
    /// then [`SeqSerializer::end`] it.
    #[inline]
    pub fn seq(&mut self) -> SeqSerializer<'_> {
        self.open('[');
        SeqSerializer {
            ser: self,
            first: true,
        }
    }

    /// Opens a map; write its entries through the returned handle, then
    /// [`MapSerializer::end`] it.
    #[inline]
    pub fn map(&mut self) -> MapSerializer<'_> {
        self.open('{');
        MapSerializer {
            ser: self,
            first: true,
        }
    }

    #[inline]
    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
    }

    /// The separator and indentation before an element or entry.
    #[inline]
    fn item(&mut self, first: &mut bool) {
        if !*first {
            self.out.push(',');
        }
        *first = false;
        if self.pretty {
            self.newline();
        }
    }

    /// The `:` between a key and its value.
    #[inline]
    fn colon(&mut self) {
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    #[inline]
    fn close(&mut self, bracket: char, empty: bool) {
        self.depth -= 1;
        if self.pretty && !empty {
            self.newline();
        }
        self.out.push(bracket);
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }
}

/// An open sequence (see [`Serializer::seq`]).
pub struct SeqSerializer<'s> {
    ser: &'s mut Serializer,
    first: bool,
}

impl SeqSerializer<'_> {
    /// Writes the next element.
    #[inline]
    pub fn element<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.ser.item(&mut self.first);
        value.serialize(self.ser);
    }

    /// Closes the sequence.
    #[inline]
    pub fn end(self) {
        self.ser.close(']', self.first);
    }
}

/// An open map (see [`Serializer::map`]).
pub struct MapSerializer<'s> {
    ser: &'s mut Serializer,
    first: bool,
}

impl MapSerializer<'_> {
    /// Writes the next entry, escaping `key` as [`Serializer::str`]
    /// does.
    #[inline]
    pub fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.ser.item(&mut self.first);
        self.ser.str(key);
        self.ser.colon();
        value.serialize(self.ser);
    }

    /// Writes the next entry under a key that arrives already quoted,
    /// as `"\"mesh\""`, with one copy and no escape scan.
    ///
    /// For the derive, which writes each struct key and each variant
    /// tag of an externally tagged payload through it. The caller
    /// guarantees that `quoted_key` is one JSON string token: a `"`,
    /// text with nothing to escape, and a closing `"`. Anything else
    /// writes invalid JSON. Hand-written impls call [`Self::field`].
    #[inline]
    pub fn field_literal<T: Serialize + ?Sized>(&mut self, quoted_key: &'static str, value: &T) {
        self.ser.item(&mut self.first);
        self.ser.out.push_str(quoted_key);
        self.ser.colon();
        value.serialize(self.ser);
    }

    /// Closes the map.
    #[inline]
    pub fn end(self) {
        self.ser.close('}', self.first);
    }
}
