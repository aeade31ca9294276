//! Offline stand-in for `serde`.
//!
//! The build environment has no network access, so the workspace vendors a
//! minimal serialization framework with the same *surface* the code uses —
//! `#[derive(Serialize, Deserialize)]`, `serde::Serialize`,
//! `serde::de::DeserializeOwned` — but a much simpler data model: JSON is
//! the only format. [`Serialize`] writes JSON tokens straight into a
//! [`Serializer`], compact or pretty, and [`Deserialize`] reads from a
//! [`Deserializer`], a pull parser over the borrowed input text; no
//! intermediate tree is built either way. `serde_json` (also vendored)
//! holds the entry points. [`Value`] is an owned JSON document for code
//! that builds or inspects records by hand. Enum representation follows
//! serde's externally-tagged default (`"Variant"` for unit variants,
//! `{"Variant": payload}` otherwise), so the JSON artifacts look like
//! upstream serde's.
//!
//! The codec is fast on the layout it writes itself, without a byte of
//! that layout depending on it. The writer's and parser's per-token
//! methods are `#[inline]`, so the derived impls in other crates compile
//! them in place; integers are written and read digit by digit, without
//! `fmt` or `str::parse`; the derive writes keys and unit-variant tags as
//! literals it has already quoted; and a derived struct reads its keys in
//! declared order before it falls back to matching them by name, so any
//! other key order still reads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

pub mod de;
pub mod ser;

pub use de::Deserializer;
pub use ser::Serializer;

use std::fmt;

/// An owned JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer too large for `i64`.
    UInt(u64),
    /// A float.
    Float(f64),
    /// A string.
    Str(String),
    /// A sequence.
    Seq(Vec<Value>),
    /// A map with string keys, in insertion order.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The map entries, if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// The elements, if this is a sequence.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a signed integer, if losslessly possible.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(v) => Some(v),
            Value::UInt(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if losslessly possible.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(v) => u64::try_from(v).ok(),
            Value::UInt(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a float (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(v) => Some(v as f64),
            Value::UInt(v) => Some(v as f64),
            Value::Float(v) => Some(v),
            _ => None,
        }
    }
}

/// A serialization or deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Creates an error with a message.
    pub fn custom(msg: impl fmt::Display) -> Error {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can write themselves as JSON.
pub trait Serialize {
    /// Writes `self` into `out`.
    fn serialize(&self, out: &mut Serializer);
}

/// Types that can read themselves from JSON.
pub trait Deserialize: Sized {
    /// Reads one value of this type from `de`.
    ///
    /// # Errors
    ///
    /// Returns an error when the input is not JSON of this type's shape.
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error>;
}

macro_rules! impl_integer {
    ($wide:ident, $as:ident: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Serializer) {
                out.$wide(*self as $wide);
            }
        }
        impl Deserialize for $t {
            fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
                let raw = de
                    .number()?
                    .$as()
                    .ok_or_else(|| Error::custom(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(raw).map_err(Error::custom)
            }
        }
    )*};
}

impl_integer!(i64, as_i64: i8, i16, i32, i64, isize);
impl_integer!(u64, as_u64: u8, u16, u32, u64, usize);

impl Serialize for bool {
    fn serialize(&self, out: &mut Serializer) {
        out.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.bool()
    }
}

impl Serialize for f64 {
    fn serialize(&self, out: &mut Serializer) {
        out.f64(*self);
    }
}

impl Deserialize for f64 {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.number()?
            .as_f64()
            .ok_or_else(|| Error::custom("expected number"))
    }
}

impl Serialize for f32 {
    fn serialize(&self, out: &mut Serializer) {
        out.f64(f64::from(*self));
    }
}

impl Deserialize for f32 {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        f64::deserialize(de).map(|f| f as f32)
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut Serializer) {
        out.str(self);
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut Serializer) {
        out.str(self);
    }
}

impl Deserialize for String {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.str().map(std::borrow::Cow::into_owned)
    }
}

impl Serialize for char {
    fn serialize(&self, out: &mut Serializer) {
        out.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl Deserialize for char {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        let s = de.str()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected single-char string")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut Serializer) {
        (**self).serialize(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, out: &mut Serializer) {
        (**self).serialize(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        T::deserialize(de).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut Serializer) {
        match self {
            None => out.null(),
            Some(v) => v.serialize(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        if de.null()? {
            Ok(None)
        } else {
            T::deserialize(de).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut Serializer) {
        let mut seq = out.seq();
        for item in self {
            seq.element(item);
        }
        seq.end();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut Serializer) {
        self.as_slice().serialize(out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        let mut seq = de.seq()?;
        let mut items = Vec::new();
        while let Some(item) = seq.element()? {
            items.push(item);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn serialize(&self, out: &mut Serializer) {
        let mut seq = out.seq();
        for item in self {
            seq.element(item);
        }
        seq.end();
    }
}

impl<T: Deserialize> Deserialize for std::collections::VecDeque<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        Vec::deserialize(de).map(Into::into)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, out: &mut Serializer) {
        self.as_slice().serialize(out);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        let items: Vec<T> = Vec::deserialize(de)?;
        items
            .try_into()
            .map_err(|_| Error::custom(format!("expected {N}-element sequence")))
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident $idx:tt),+);)*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, out: &mut Serializer) {
                let mut seq = out.seq();
                $(seq.element(&self.$idx);)+
                seq.end();
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
                let mut seq = de.seq()?;
                let out = ($(
                    seq.element::<$name>()?.ok_or_else(|| Error::custom("tuple too short"))?,
                )+);
                seq.end()?;
                Ok(out)
            }
        }
    )*};
}

impl_tuple! {
    (A 0);
    (A 0, B 1);
    (A 0, B 1, C 2);
    (A 0, B 1, C 2, D 3);
}

impl Serialize for Value {
    fn serialize(&self, out: &mut Serializer) {
        match self {
            Value::Null => out.null(),
            Value::Bool(b) => out.bool(*b),
            Value::Int(i) => out.i64(*i),
            Value::UInt(u) => out.u64(*u),
            Value::Float(f) => out.f64(*f),
            Value::Str(s) => out.str(s),
            Value::Seq(items) => items.serialize(out),
            Value::Map(entries) => {
                let mut map = out.map();
                for (k, v) in entries {
                    map.field(k, v);
                }
                map.end();
            }
        }
    }
}

impl Deserialize for Value {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        Ok(match de.peek()? {
            b'n' => {
                de.null()?;
                Value::Null
            }
            b't' | b'f' => Value::Bool(de.bool()?),
            b'"' => Value::Str(de.str()?.into_owned()),
            b'[' => Value::Seq(Vec::deserialize(de)?),
            b'{' => {
                let mut map = de.map()?;
                let mut entries = Vec::new();
                while let Some(key) = map.key()? {
                    entries.push((key.into_owned(), map.value()?));
                }
                Value::Map(entries)
            }
            _ => de.number()?,
        })
    }
}
