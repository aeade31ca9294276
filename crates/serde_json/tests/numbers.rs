//! Number reading at its boundaries: every integer width at and past its
//! limits, both signs of 2^63, a run too long for any integer, and the
//! malformed spellings, each read as every numeric type and as a
//! `Value`. The expected column is what the `str::parse`-based reader
//! returned, so the digit-summing reader is held to the same answers,
//! values and error messages alike.

use serde::Value;
use serde_json::from_str;

const RANGE: &str = "error: out of range integral type conversion attempted";

/// `(input, [i64, u64, i32, u32, u8, f64, Value])`: a value's `Debug`
/// form, or `error: ` and the message.
const TABLE: &[(&str, [&str; 7])] = &[
    (
        "-9223372036854775809",
        [
            "error: expected i64",
            "error: expected u64",
            "error: expected i32",
            "error: expected u32",
            "error: expected u8",
            "-9.223372036854776e18",
            "Float(-9.223372036854776e18)",
        ],
    ),
    (
        "-9223372036854775808",
        [
            "-9223372036854775808",
            "error: expected u64",
            RANGE,
            "error: expected u32",
            "error: expected u8",
            "-9.223372036854776e18",
            "Int(-9223372036854775808)",
        ],
    ),
    (
        "9223372036854775807",
        [
            "9223372036854775807",
            "9223372036854775807",
            RANGE,
            RANGE,
            RANGE,
            "9.223372036854776e18",
            "Int(9223372036854775807)",
        ],
    ),
    (
        "9223372036854775808",
        [
            "error: expected i64",
            "9223372036854775808",
            "error: expected i32",
            RANGE,
            RANGE,
            "9.223372036854776e18",
            "UInt(9223372036854775808)",
        ],
    ),
    (
        "18446744073709551615",
        [
            "error: expected i64",
            "18446744073709551615",
            "error: expected i32",
            RANGE,
            RANGE,
            "1.8446744073709552e19",
            "UInt(18446744073709551615)",
        ],
    ),
    (
        "18446744073709551616",
        [
            "error: expected i64",
            "error: expected u64",
            "error: expected i32",
            "error: expected u32",
            "error: expected u8",
            "1.8446744073709552e19",
            "Float(1.8446744073709552e19)",
        ],
    ),
    (
        "1234567890123456789012345",
        [
            "error: expected i64",
            "error: expected u64",
            "error: expected i32",
            "error: expected u32",
            "error: expected u8",
            "1.2345678901234568e24",
            "Float(1.2345678901234568e24)",
        ],
    ),
    ("-0", ["0", "0", "0", "0", "0", "0.0", "Int(0)"]),
    ("007", ["7", "7", "7", "7", "7", "7.0", "Int(7)"]),
    (
        "1.0",
        [
            "error: expected i64",
            "error: expected u64",
            "error: expected i32",
            "error: expected u32",
            "error: expected u8",
            "1.0",
            "Float(1.0)",
        ],
    ),
    (
        "1e3",
        [
            "error: expected i64",
            "error: expected u64",
            "error: expected i32",
            "error: expected u32",
            "error: expected u8",
            "1000.0",
            "Float(1000.0)",
        ],
    ),
    ("-", ["error: expected number at byte 0"; 7]),
    ("--1", ["error: invalid number `--1`"; 7]),
    ("1-2", ["error: invalid number `1-2`"; 7]),
    (
        "+1",
        [
            "error: expected i64",
            "error: expected u64",
            "error: expected i32",
            "error: expected u32",
            "error: expected u8",
            "1.0",
            "Float(1.0)",
        ],
    ),
];

fn show<T: std::fmt::Debug>(read: Result<T, serde::Error>) -> String {
    match read {
        Ok(v) => format!("{v:?}"),
        Err(e) => format!("error: {e}"),
    }
}

fn read_as_each_type(text: &str) -> [String; 7] {
    [
        show(from_str::<i64>(text)),
        show(from_str::<u64>(text)),
        show(from_str::<i32>(text)),
        show(from_str::<u32>(text)),
        show(from_str::<u8>(text)),
        show(from_str::<f64>(text)),
        show(from_str::<Value>(text)),
    ]
}

#[test]
fn numbers_read_as_pinned_at_their_boundaries() {
    for (input, expected) in TABLE {
        assert_eq!(read_as_each_type(input), *expected, "{input:?}");
        // Leading whitespace moves only the byte offset of an error.
        let spaced = format!(" \n\t{input}");
        let shifted = expected.map(|e| e.replace("at byte 0", "at byte 3"));
        assert_eq!(read_as_each_type(&spaced), shifted, "{spaced:?}");
    }
}
