//! A derived struct reads its keys in declared order first and falls
//! back to matching them by name. Whatever the order, spelling and
//! spacing of the keys, the value read must be the one the by-name loop
//! alone reads, and a malformed map must fail with the same message.

use serde::{Deserialize, Serialize};
use serde_json::from_str;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Coord {
    x: i32,
    y: i32,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Query {
    mesh: String,
    at_epoch: Option<u64>,
    s: Coord,
    d: Coord,
}

const COORD: Coord = Coord { x: 1, y: 3 };

fn query() -> Query {
    Query {
        mesh: "m".to_string(),
        at_epoch: Some(2),
        s: Coord { x: 0, y: 5 },
        d: Coord { x: 7, y: -1 },
    }
}

#[test]
fn coords_read_the_same_in_any_key_layout() {
    for text in [
        // Declared order, then reversed.
        r#"{"x":1,"y":3}"#,
        r#"{"y":3,"x":1}"#,
        // An unknown key after the first field, before it, and last.
        r#"{"x":1,"junk":2,"y":3}"#,
        r#"{"junk":{"x":9},"x":1,"y":3}"#,
        r#"{"x":1,"y":3,"junk":[]}"#,
        // Duplicates after a field: the first occurrence wins, and a
        // duplicate's value is skipped unread.
        r#"{"x":1,"x":5,"y":3}"#,
        r#"{"x":1,"y":3,"y":"bad","x":null}"#,
        // Escaped spellings of a key.
        r#"{"\u0078":1,"y":3}"#,
        r#"{"x":1,"\u0079":3}"#,
        // Keys that extend or shorten a field name.
        r#"{"xy":7,"x":1,"y":3}"#,
        r#"{"x":1,"xy":7,"y":3}"#,
        r#"{"x":1,"":7,"y":3}"#,
        // Whitespace and newlines around `:` and `,`.
        "{ \"x\" : 1 ,\n \"y\"\n:\n3 }",
        "\n{\n  \"x\": 1,\n  \"y\": 3\n}\n",
        "{\"x\"\t:1\r\n,\"y\":3}",
    ] {
        assert_eq!(from_str::<Coord>(text), Ok(COORD), "{text}");
    }
}

#[test]
fn structs_read_the_same_in_any_key_layout() {
    let s = r#""s":{"x":0,"y":5}"#;
    let d = r#""d":{"y":-1,"x":7}"#;
    for text in [
        format!(r#"{{"mesh":"m","at_epoch":2,{s},{d}}}"#),
        format!(r#"{{{d},{s},"at_epoch":2,"mesh":"m"}}"#),
        // In order for the first fields, then out of order.
        format!(r#"{{"mesh":"m","at_epoch":2,{d},{s}}}"#),
        format!(r#"{{"mesh":"m",{d},"at_epoch":2,{s}}}"#),
        // Unknown and duplicate keys after the first field.
        format!(r#"{{"mesh":"m","meshes":"z","at_epoch":2,{s},{d}}}"#),
        format!(r#"{{"mesh":"m","m":"z","at_epoch":2,{s},{d}}}"#),
        format!(r#"{{"mesh":"m","mesh":"z","at_epoch":2,{s},{d},"at_epoch":null}}"#),
        // An escaped spelling of the first key, and of a later one.
        format!(r#"{{"m\u0065sh":"m","at_epoch":2,{s},{d}}}"#),
        format!(r#"{{"mesh":"m","at\u005fepoch":2,{s},{d}}}"#),
        format!("{{ \"mesh\" :\n\"m\" ,\n\"at_epoch\":2 , {s} ,{d}\n}}"),
    ] {
        assert_eq!(from_str::<Query>(&text), Ok(query()), "{text}");
    }
    assert_eq!(
        from_str::<Query>(&serde_json::to_string_pretty(&query()).unwrap()),
        Ok(query())
    );
}

#[test]
fn malformed_maps_fail_with_the_by_name_message() {
    for (text, message) in [
        (r#"{"x":1,}"#, "expected `\"` at byte 7"),
        (r#"{"x" 1}"#, "expected `:` at byte 5"),
        (r#"{"x":1 "y":3}"#, "expected `,` or `}` at byte 7"),
        (r#"{"y":3}"#, "missing field `x`"),
        (r#"{"x":1}"#, "missing field `y`"),
        (r#"{"x":1,"y":3,}"#, "expected `\"` at byte 13"),
        (r#"{"x":1,"y"}"#, "expected `:` at byte 10"),
        (r#"{"x":1,"y":}"#, "expected number at byte 11"),
        (r#"{"x":1,,"y":3}"#, "expected `\"` at byte 7"),
        (r#"{,"x":1}"#, "expected `\"` at byte 1"),
        (r#"{"x":1,"y":3"#, "unexpected end of JSON input"),
        (r#"{"x":1,"y""#, "unexpected end of JSON input"),
        (r#"{"x":1,"#, "unexpected end of JSON input"),
        (r#"{"x""#, "unexpected end of JSON input"),
        (r#"{"x"#, "unterminated string"),
        ("{", "unexpected end of JSON input"),
        (r#"{"x":1,"y":3}}"#, "trailing characters after JSON value"),
        (r#"{"x":1, "y" :3 ,"z"}"#, "expected `:` at byte 19"),
    ] {
        let err = from_str::<Coord>(text).unwrap_err();
        assert_eq!(err.to_string(), message, "{text}");
    }
}
