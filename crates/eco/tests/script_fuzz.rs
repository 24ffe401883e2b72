//! Property tests for the ECO script parser: arbitrary and truncated input
//! must never panic, every rejection must be a typed [`ParseError`] that
//! names the offending line, and every name survives a write and a read.

use proptest::prelude::*;
use qbp_core::io::ParseError;
use qbp_core::QbpError;
use qbp_eco::script::{format_delta, parse_script, ScriptOp};
use qbp_eco::NetlistDelta;

fn assert_located(err: &ParseError) {
    let msg = err.to_string();
    assert!(
        msg.contains("line "),
        "script parse error must carry a line number: {msg:?}"
    );
    let lifted: QbpError = err.clone().into();
    assert!(matches!(lifted, QbpError::Parse(_)));
}

/// Arbitrary printable-ish characters, biased toward JSON punctuation so
/// random lines reach deep into the flat-object scanner.
fn noise_char() -> impl Strategy<Value = char> {
    (0usize..16, 0u32..94).prop_map(|(pick, c)| match pick {
        0 => '{',
        1 => '}',
        2 => '"',
        3 => ':',
        4 => ',',
        5 => '-',
        6 => '#',
        7 => '\t',
        _ => char::from_u32(32 + c).unwrap_or(' '),
    })
}

/// Script-line fragments: valid ops, malformed ops, and raw noise.
fn fragment() -> impl Strategy<Value = String> {
    (0usize..10, 0i64..1 << 32).prop_map(|(pick, n)| match pick {
        0 => format!("{{\"op\": \"add_component\", \"name\": \"u{n}\", \"size\": {n}}}\n"),
        1 => format!("{{\"op\": \"add_pair\", \"a\": {n}, \"b\": 0, \"weight\": {n}}}\n"),
        2 => format!("{{\"op\": \"tighten_cycle_time\", \"delta\": -{n}}}\n"),
        3 => format!("{{\"op\": \"set_timing_bound\", \"a\": 0, \"b\": {n}}}\n"),
        4 => format!("{{\"op\": \"frobnicate\", \"x\": {n}}}\n"),
        5 => format!("{{\"op\": \"add_component\", \"size\": {n}}}\n"),
        6 => format!("{{\"op\": \"add_pair\", \"a\": -{n}}}\n"),
        7 => format!("# comment {n}\n"),
        8 => "\n".to_string(),
        9 => format!("{{\"op\": \"add_component\", \"name\": \"u{n}\", \"size\": {n}"),
        _ => unreachable!(),
    })
}

/// Component names built from quotes, backslashes, control characters,
/// `DEL` and non-ASCII text, among plain printable characters.
fn awkward_name() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..10, 0u8..0x5f), 0..12).prop_map(|chars| {
        chars
            .into_iter()
            .map(|(pick, c)| match pick {
                0 => '"',
                1 => '\\',
                2 => char::from(c % 0x20),
                3 => '\u{7f}',
                4 => 'é',
                5 => '€',
                6 => '😀',
                _ => char::from(0x20 + c),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Names are JSON strings: whatever they hold, the written script reads
    // back to the same ops.
    #[test]
    fn names_round_trip_through_format_and_parse(
        names in proptest::collection::vec(awkward_name(), 1..8),
        size in 0u64..100,
    ) {
        let delta = names
            .iter()
            .fold(NetlistDelta::new(), |delta, name| delta.add_component(name.as_str(), size));
        let text = format_delta(&delta);
        prop_assert_eq!(text.lines().count(), names.len());
        let parsed: Vec<ScriptOp> = parse_script(&text)
            .expect("a written script parses")
            .into_iter()
            .map(|(_, op)| op)
            .collect();
        let want: Vec<ScriptOp> = names
            .iter()
            .map(|name| ScriptOp::AddComponent { name: name.clone(), size })
            .collect();
        prop_assert_eq!(parsed, want);
    }

    // Raw character noise: the flat-JSON scanner must reject with a line
    // number, never panic or loop.
    #[test]
    fn arbitrary_text_never_panics(chars in proptest::collection::vec(noise_char(), 0..512)) {
        let text: String = chars.into_iter().collect();
        match parse_script(&text) {
            Ok(_) => {}
            Err(e) => assert_located(&e),
        }
    }

    // Structured fragments: valid and near-valid op lines in any order.
    #[test]
    fn fragment_scripts_never_panic(parts in proptest::collection::vec(fragment(), 0..24)) {
        let text = parts.concat();
        match parse_script(&text) {
            Ok(_) => {}
            Err(e) => assert_located(&e),
        }
    }

    // Truncating a valid script at any byte keeps the parser total: every
    // prefix either parses or reports a located error.
    #[test]
    fn truncated_script_never_panics(cut in 0usize..300) {
        let full = "\
{\"op\": \"add_component\", \"name\": \"u99\", \"size\": 3}
{\"op\": \"add_pair\", \"a\": 3, \"b\": 17, \"weight\": 2}
{\"op\": \"reweight_pair\", \"a\": \"u3\", \"b\": \"u17\", \"weight\": 9}
{\"op\": \"set_timing_bound\", \"a\": 3, \"b\": 17, \"bound\": 4}
{\"op\": \"tighten_cycle_time\", \"delta\": 1}
";
        let cut = cut.min(full.len());
        match parse_script(&full[..cut]) {
            Ok(_) => {}
            Err(e) => assert_located(&e),
        }
    }
}
