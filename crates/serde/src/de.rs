//! The JSON pull parser every [`Deserialize`] impl reads from.
//!
//! The per-token methods are `#[inline]`: the derived impls live in the
//! crates that derive them, so without it each token would be an
//! out-of-line call across a crate boundary. [`Deserializer::number`]
//! sums an integer's digits while it scans them, and a derived struct
//! first tries its keys in declared order with
//! [`MapAccess::key_literal`], the order the writer emits them in,
//! before it matches the rest by name.

pub use crate::{Deserialize, Error};

use crate::Value;
use std::borrow::Cow;

/// Owned deserialization — with this stand-in's lifetime-free model,
/// simply an alias bound for [`Deserialize`].
pub trait DeserializeOwned: Deserialize {}
impl<T: Deserialize> DeserializeOwned for T {}

/// How deeply sequences and maps may nest before parsing fails. Every
/// level costs stack frames, so the cap turns hostile input into an
/// error instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// A pull parser over borrowed JSON text. Strings without escapes come
/// back borrowed from the input; nothing else allocates.
pub struct Deserializer<'a> {
    src: &'a str,
    pos: usize,
    /// Open sequences and maps around the read position.
    depth: usize,
}

impl<'a> Deserializer<'a> {
    /// A parser positioned at the start of `src`.
    #[inline]
    pub fn new(src: &'a str) -> Deserializer<'a> {
        Deserializer {
            src,
            pos: 0,
            depth: 0,
        }
    }

    /// Checks that only whitespace follows the parsed value.
    #[inline]
    pub fn end(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(Error::custom("trailing characters after JSON value"))
        }
    }

    #[inline]
    fn skip_ws(&mut self) {
        self.pos = skip_ws_from(self.src.as_bytes(), self.pos);
    }

    /// The next non-whitespace byte, without consuming it.
    #[inline]
    pub fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.src
            .as_bytes()
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::custom("unexpected end of JSON input"))
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    #[inline]
    fn keyword(&mut self, word: &str) -> Result<(), Error> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(Error::custom(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    /// Consumes a `null` if one comes next, and says whether it did.
    #[inline]
    pub fn null(&mut self) -> Result<bool, Error> {
        if self.peek()? == b'n' {
            self.keyword("null")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Reads a boolean.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, Error> {
        match self.peek()? {
            b't' => self.keyword("true").map(|()| true),
            b'f' => self.keyword("false").map(|()| false),
            _ => Err(Error::custom("expected bool")),
        }
    }

    /// Reads a number as [`Value::Int`] when it is integral and fits,
    /// else [`Value::UInt`], else [`Value::Float`].
    ///
    /// An integer's digits are summed with checked arithmetic while they
    /// are scanned. A fraction, an exponent, a sign inside the number,
    /// and a magnitude above `u64::MAX` or below −2^63 go to
    /// `str::parse::<f64>`, so the answers and errors are those of
    /// parsing the text as `i64`, then `u64`, then `f64`.
    #[inline]
    pub fn number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let negative = bytes.get(self.pos) == Some(&b'-');
        if negative {
            self.pos += 1;
        }
        let mut is_float = false;
        // The digits read so far; `None` once they pass `u64::MAX`.
        let mut magnitude = Some(0u64);
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {
                    magnitude = magnitude
                        .and_then(|m| m.checked_mul(10))
                        .and_then(|m| m.checked_add(u64::from(b - b'0')));
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        if text.is_empty() || text == "-" {
            return Err(Error::custom(format!("expected number at byte {start}")));
        }
        if let (false, Some(m)) = (is_float, magnitude) {
            let int = if negative {
                0i64.checked_sub_unsigned(m).map(Value::Int)
            } else {
                Some(i64::try_from(m).map_or(Value::UInt(m), Value::Int))
            };
            if let Some(int) = int {
                return Ok(int);
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::custom(format!("invalid number `{text}`")))
    }

    /// Reads a string: borrowed from the input unless it holds escapes.
    #[inline]
    pub fn str(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let bytes = self.src.as_bytes();
        let mut owned: Option<String> = None;
        // Start of the unescaped run not yet copied into `owned`; every
        // run starts and ends next to an ASCII byte, on a char boundary.
        let mut run = self.pos;
        loop {
            let Some(&b) = bytes.get(self.pos) else {
                return Err(Error::custom("unterminated string"));
            };
            match b {
                b'"' => {
                    let tail = &self.src[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                b'\\' => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(&self.src[run..self.pos]);
                    let Some(&esc) = bytes.get(self.pos + 1) else {
                        return Err(Error::custom("unterminated escape"));
                    };
                    self.pos += 2;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::custom("invalid \\u escape"))?;
                            self.pos += 4;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::custom("invalid \\u escape"))?;
                            char::from_u32(code)
                                .ok_or_else(|| Error::custom("invalid \\u code point"))?
                        }
                        _ => return Err(Error::custom("unknown escape")),
                    });
                    run = self.pos;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// Opens a sequence; read its elements through the returned handle.
    #[inline]
    pub fn seq(&mut self) -> Result<SeqAccess<'_, 'a>, Error> {
        self.open(b'[')?;
        Ok(SeqAccess {
            de: self,
            first: true,
        })
    }

    /// Opens a map; read its entries through the returned handle.
    #[inline]
    pub fn map(&mut self) -> Result<MapAccess<'_, 'a>, Error> {
        self.open(b'{')?;
        Ok(MapAccess {
            de: self,
            first: true,
        })
    }

    #[inline]
    fn open(&mut self, bracket: u8) -> Result<(), Error> {
        self.expect(bracket)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(Error::custom(format!(
                "JSON nested deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        Ok(())
    }

    /// Steps past the separator before an element or entry. Returns
    /// `false`, having consumed the closing `bracket`, when the
    /// container ends instead.
    #[inline]
    fn item(&mut self, first: &mut bool, bracket: u8) -> Result<bool, Error> {
        let b = self.peek()?;
        if b == bracket {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        if !*first {
            if b != b',' {
                return Err(Error::custom(format!(
                    "expected `,` or `{}` at byte {}",
                    bracket as char, self.pos
                )));
            }
            self.pos += 1;
        }
        *first = false;
        Ok(true)
    }
}

/// The position of the first non-whitespace byte at or after `at`.
#[inline]
fn skip_ws_from(bytes: &[u8], mut at: usize) -> usize {
    while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(at) {
        at += 1;
    }
    at
}

/// An open sequence (see [`Deserializer::seq`]).
pub struct SeqAccess<'d, 'a> {
    de: &'d mut Deserializer<'a>,
    first: bool,
}

impl SeqAccess<'_, '_> {
    /// The next element, or `None` once the sequence has closed.
    #[inline]
    pub fn element<T: Deserialize>(&mut self) -> Result<Option<T>, Error> {
        if self.de.item(&mut self.first, b']')? {
            T::deserialize(self.de).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Closes a sequence whose elements have all been read.
    #[inline]
    pub fn end(mut self) -> Result<(), Error> {
        if self.de.item(&mut self.first, b']')? {
            Err(Error::custom("sequence has too many elements"))
        } else {
            Ok(())
        }
    }
}

/// An open map (see [`Deserializer::map`]).
pub struct MapAccess<'d, 'a> {
    de: &'d mut Deserializer<'a>,
    first: bool,
}

impl<'a> MapAccess<'_, 'a> {
    /// The next key, or `None` once the map has closed. Read or skip its
    /// value before asking for the next key.
    #[inline]
    pub fn key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.de.item(&mut self.first, b'}')? {
            return Ok(None);
        }
        let key = self.de.str()?;
        self.de.expect(b':')?;
        Ok(Some(key))
    }

    /// Consumes the next key if its bytes equal `quoted`, and says
    /// whether it did. A hit consumes the `,` before the key (unless it
    /// is the first), the key and its `:`; a miss consumes nothing, so
    /// [`Self::key`] then reads the same key, or reports the same error,
    /// as it would have without this call.
    ///
    /// For the derive, which tries a struct's keys in declared order,
    /// the order its writer emits them in, before it matches the rest of
    /// the map by name. The caller guarantees that `quoted` is one JSON
    /// string token: a `"`, a key with nothing to escape, and a closing
    /// `"`. So byte equality is key equality, and an escaped spelling of
    /// the same key is a miss that [`Self::key`] reads.
    #[inline]
    pub fn key_literal(&mut self, quoted: &'static str) -> bool {
        let bytes = self.de.src.as_bytes();
        let mut at = skip_ws_from(bytes, self.de.pos);
        if !self.first {
            if bytes.get(at) != Some(&b',') {
                return false;
            }
            at = skip_ws_from(bytes, at + 1);
        }
        if !bytes
            .get(at..)
            .is_some_and(|rest| rest.starts_with(quoted.as_bytes()))
        {
            return false;
        }
        at = skip_ws_from(bytes, at + quoted.len());
        if bytes.get(at) != Some(&b':') {
            return false;
        }
        self.de.pos = at + 1;
        self.first = false;
        true
    }

    /// The value of the key just read.
    #[inline]
    pub fn value<T: Deserialize>(&mut self) -> Result<T, Error> {
        T::deserialize(self.de)
    }

    /// Parses and discards the value of the key just read.
    #[inline]
    pub fn skip_value(&mut self) -> Result<(), Error> {
        Value::deserialize(self.de).map(drop)
    }
}
