//! The JSON writer every [`Serialize`] impl writes into.

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
    pub fn compact() -> Serializer {
        Serializer {
            out: String::new(),
            pretty: false,
            depth: 0,
        }
    }

    /// A writer for human-readable, two-space-indented JSON.
    pub fn pretty() -> Serializer {
        Serializer {
            pretty: true,
            ..Serializer::compact()
        }
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes a boolean.
    pub fn bool(&mut self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, v: i64) {
        let _ = write!(self.out, "{v}");
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, v: u64) {
        let _ = write!(self.out, "{v}");
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
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
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
        self.out.push('"');
    }

    /// Opens a sequence; write its elements through the returned handle,
    /// then [`SeqSerializer::end`] it.
    pub fn seq(&mut self) -> SeqSerializer<'_> {
        self.open('[');
        SeqSerializer {
            ser: self,
            first: true,
        }
    }

    /// Opens a map; write its entries through the returned handle, then
    /// [`MapSerializer::end`] it.
    pub fn map(&mut self) -> MapSerializer<'_> {
        self.open('{');
        MapSerializer {
            ser: self,
            first: true,
        }
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
    }

    /// The separator and indentation before an element or entry.
    fn item(&mut self, first: &mut bool) {
        if !*first {
            self.out.push(',');
        }
        *first = false;
        if self.pretty {
            self.newline();
        }
    }

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
    pub fn element<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.ser.item(&mut self.first);
        value.serialize(self.ser);
    }

    /// Closes the sequence.
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
    /// Writes the next entry.
    pub fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.ser.item(&mut self.first);
        self.ser.str(key);
        self.ser
            .out
            .push_str(if self.ser.pretty { ": " } else { ":" });
        value.serialize(self.ser);
    }

    /// Closes the map.
    pub fn end(self) {
        self.ser.close('}', self.first);
    }
}
