//! The JSON pull parser every [`Deserialize`] impl reads from.

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
    pub fn new(src: &'a str) -> Deserializer<'a> {
        Deserializer {
            src,
            pos: 0,
            depth: 0,
        }
    }

    /// Checks that only whitespace follows the parsed value.
    pub fn end(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(Error::custom("trailing characters after JSON value"))
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.src.as_bytes().get(self.pos) {
            self.pos += 1;
        }
    }

    /// The next non-whitespace byte, without consuming it.
    pub fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.src
            .as_bytes()
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::custom("unexpected end of JSON input"))
    }

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
    pub fn null(&mut self) -> Result<bool, Error> {
        if self.peek()? == b'n' {
            self.keyword("null")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Reads a boolean.
    pub fn bool(&mut self) -> Result<bool, Error> {
        match self.peek()? {
            b't' => self.keyword("true").map(|()| true),
            b'f' => self.keyword("false").map(|()| false),
            _ => Err(Error::custom("expected bool")),
        }
    }

    /// Reads a number as [`Value::Int`] when it is integral and fits,
    /// else [`Value::UInt`], else [`Value::Float`].
    pub fn number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let bytes = self.src.as_bytes();
        let start = self.pos;
        if bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        if text.is_empty() || text == "-" {
            return Err(Error::custom(format!("expected number at byte {start}")));
        }
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::custom(format!("invalid number `{text}`")))
    }

    /// Reads a string: borrowed from the input unless it holds escapes.
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
    pub fn seq(&mut self) -> Result<SeqAccess<'_, 'a>, Error> {
        self.open(b'[')?;
        Ok(SeqAccess {
            de: self,
            first: true,
        })
    }

    /// Opens a map; read its entries through the returned handle.
    pub fn map(&mut self) -> Result<MapAccess<'_, 'a>, Error> {
        self.open(b'{')?;
        Ok(MapAccess {
            de: self,
            first: true,
        })
    }

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

/// An open sequence (see [`Deserializer::seq`]).
pub struct SeqAccess<'d, 'a> {
    de: &'d mut Deserializer<'a>,
    first: bool,
}

impl SeqAccess<'_, '_> {
    /// The next element, or `None` once the sequence has closed.
    pub fn element<T: Deserialize>(&mut self) -> Result<Option<T>, Error> {
        if self.de.item(&mut self.first, b']')? {
            T::deserialize(self.de).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Closes a sequence whose elements have all been read.
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
    pub fn key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.de.item(&mut self.first, b'}')? {
            return Ok(None);
        }
        let key = self.de.str()?;
        self.de.expect(b':')?;
        Ok(Some(key))
    }

    /// The value of the key just read.
    pub fn value<T: Deserialize>(&mut self) -> Result<T, Error> {
        T::deserialize(self.de)
    }

    /// Parses and discards the value of the key just read.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        Value::deserialize(self.de).map(drop)
    }
}
