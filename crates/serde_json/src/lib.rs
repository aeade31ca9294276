//! Offline stand-in for `serde_json`: the text entry points over the
//! vendored serde's streaming JSON writer and pull parser. Supports
//! everything the workspace round-trips — objects, arrays, strings,
//! numbers, booleans, null.

use serde::de::DeserializeOwned;
use serde::{Deserializer, Error, Serialize, Serializer};

/// Serializes a value to its compact JSON representation.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = Serializer::compact();
    value.serialize(&mut out);
    Ok(out.into_string())
}

/// Serializes a value to human-readable, two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = Serializer::pretty();
    value.serialize(&mut out);
    Ok(out.into_string())
}

/// Parses JSON text into a value.
pub fn from_str<T: DeserializeOwned>(s: &str) -> Result<T, Error> {
    let mut de = Deserializer::new(s);
    let value = T::deserialize(&mut de)?;
    de.end()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::de::MAX_DEPTH;
    use serde::{Deserialize, Value};

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(to_string(&42i32).unwrap(), "42");
        assert_eq!(from_str::<i32>("42").unwrap(), 42);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert!(!from_str::<bool>("false").unwrap());
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(to_string(&i64::MIN).unwrap(), "-9223372036854775808");
        assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
        assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(from_str::<f64>("2").unwrap(), 2.0);
        assert_eq!(from_str::<char>("\"é\"").unwrap(), 'é');
    }

    #[test]
    fn range_and_type_errors_are_caught() {
        assert!(from_str::<u8>("300").is_err());
        assert!(from_str::<u32>("-1").is_err());
        assert!(from_str::<u32>("1.0").is_err());
        assert!(from_str::<i64>("\"x\"").is_err());
        assert!(from_str::<f64>("null").is_err());
        assert!(from_str::<bool>("nul").is_err());
        assert!(from_str::<char>("\"ab\"").is_err());
    }

    #[test]
    fn roundtrip_containers() {
        let v = vec![1u32, 2, 3];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[1,2,3]");
        assert_eq!(from_str::<Vec<u32>>(&json).unwrap(), v);
        assert_eq!(to_string(v.as_slice()).unwrap(), json);

        let arr = [5u32, 6, 7, 8];
        assert_eq!(
            from_str::<[u32; 4]>(&to_string(&arr).unwrap()).unwrap(),
            arr
        );
        assert!(from_str::<[u32; 4]>("[1,2,3]").is_err());

        let tup = (1i32, "a".to_string());
        assert_eq!(to_string(&tup).unwrap(), r#"[1,"a"]"#);
        assert_eq!(from_str::<(i32, String)>(r#"[1,"a"]"#).unwrap(), tup);
        assert!(from_str::<(i32, String)>("[1]").is_err());
        assert!(from_str::<(i32, String)>(r#"[1,"a",2]"#).is_err());

        let opt: Option<String> = Some("hi \"there\"\n".to_string());
        let json = to_string(&opt).unwrap();
        assert_eq!(from_str::<Option<String>>(&json).unwrap(), opt);

        let none: Option<i32> = None;
        assert_eq!(to_string(&none).unwrap(), "null");
        assert_eq!(from_str::<Option<i32>>("null").unwrap(), None);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "q\"b\\n\nr\rt\t\u{1}é✓".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(json, r#""q\"b\\n\nr\rt\t\u0001é✓""#);
        assert_eq!(from_str::<String>(&json).unwrap(), s);
        assert_eq!(
            from_str::<String>(r#""\/\b\féx""#).unwrap(),
            "/\u{8}\u{c}éx"
        );
        assert!(from_str::<String>(r#""\ud800""#).is_err());
        assert!(from_str::<String>(r#""\q""#).is_err());
        assert!(from_str::<String>(r#""abc"#).is_err());
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v: Vec<Vec<i32>> = from_str(" [ [1, 2] , [ ] , [3] ] ").unwrap();
        assert_eq!(v, vec![vec![1, 2], vec![], vec![3]]);
        assert!(from_str::<Vec<i32>>("[1,]").is_err());
        assert!(from_str::<Vec<i32>>("[,1]").is_err());
        assert!(from_str::<Vec<i32>>("[1 2]").is_err());
        assert!(from_str::<Vec<i32>>("[1] x").is_err());
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = vec![vec![1u32], vec![2, 3], vec![]];
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(
            pretty,
            "[\n  [\n    1\n  ],\n  [\n    2,\n    3\n  ],\n  []\n]"
        );
        assert_eq!(from_str::<Vec<Vec<u32>>>(&pretty).unwrap(), v);
    }

    #[test]
    fn value_roundtrips_any_document() {
        let text = r#"{"a":[1,-2,18446744073709551615,2.5,null,true,"s"],"b":{},"c":[]}"#;
        let v: Value = from_str(text).unwrap();
        assert_eq!(v.as_map().unwrap().len(), 3);
        assert_eq!(to_string(&v).unwrap(), text);
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Point {
        x: i32,
        y: Option<u8>,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Pair(i32, String);

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Wrapper<T>(T);

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Empty,
        Dot(Point),
        Segment(Point, Point),
    }

    #[test]
    fn derived_shapes_roundtrip() {
        let shapes = vec![
            Shape::Empty,
            Shape::Dot(Point { x: 1, y: None }),
            Shape::Segment(Point { x: -1, y: Some(2) }, Point { x: 3, y: Some(4) }),
        ];
        let json = to_string(&shapes).unwrap();
        assert_eq!(
            json,
            r#"["Empty",{"Dot":{"x":1,"y":null}},{"Segment":[{"x":-1,"y":2},{"x":3,"y":4}]}]"#
        );
        assert_eq!(from_str::<Vec<Shape>>(&json).unwrap(), shapes);

        let pair = Pair(7, "p".to_string());
        assert_eq!(to_string(&pair).unwrap(), r#"[7,"p"]"#);
        assert_eq!(from_str::<Pair>(r#"[7,"p"]"#).unwrap(), pair);
        assert_eq!(to_string(&Wrapper(5u8)).unwrap(), "5");
        assert_eq!(from_str::<Wrapper<u8>>("5").unwrap(), Wrapper(5));
    }

    #[test]
    fn derived_structs_match_fields_by_name() {
        // Any order; unknown keys skipped; the first occurrence wins.
        let p: Point = from_str(r#"{"y":3,"junk":[{"deep":[]}],"x":-4,"x":9,"y":"bad"}"#).unwrap();
        assert_eq!(p, Point { x: -4, y: Some(3) });
        let err = from_str::<Point>(r#"{"y":null}"#).unwrap_err();
        assert_eq!(err.to_string(), "missing field `x`");
        assert!(from_str::<Point>(r#"{"x":1,"x":}"#).is_err());
        assert!(from_str::<Point>(r#"{"x":1,}"#).is_err());
        assert!(from_str::<Point>("[1]").is_err());
    }

    #[test]
    fn derived_enums_reject_unknown_and_malformed_tags() {
        for bad in [
            r#""Nope""#,
            r#""Dot""#,
            r#"{"Empty":null}"#,
            r#"{"Dot":{"x":1,"y":null},"Empty":null}"#,
            "{}",
            "3",
        ] {
            assert!(from_str::<Shape>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_deeper_than_the_cap_is_an_error() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nested deeper"), "{err}");
        // Far past any stack: still an error, not an overflow.
        let deep = "{\"a\":".repeat(100_000);
        let err = from_str::<Value>(&deep).unwrap_err();
        assert!(err.to_string().contains("nested deeper"), "{err}");
        let err = from_str::<Point>(&format!(r#"{{"junk":{},"x":1}}"#, nested(200))).unwrap_err();
        assert!(err.to_string().contains("nested deeper"), "{err}");
    }
}
