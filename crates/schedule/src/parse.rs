//! Parsing schedule primitives from their pseudo-code text form.
//!
//! Round-trips with the `Display` impls: `SP(dense, i, [64, 8, 4])` parses
//! back into a [`ConcretePrimitive`]. Lets users write schedules by hand,
//! store them in text fixtures, and paste them from logs.

use crate::kind::PrimitiveKind;
use crate::primitive::ConcretePrimitive;
use crate::sequence::ScheduleSequence;
use std::fmt;

/// Error parsing a primitive's text form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePrimitiveError {
    message: String,
    /// The offending input line.
    pub line: String,
    /// 1-based source line number, when parsing multi-line schedule text.
    line_number: Option<usize>,
}

impl ParsePrimitiveError {
    fn new(message: impl Into<String>, line: &str) -> Self {
        ParsePrimitiveError {
            message: message.into(),
            line: line.to_string(),
            line_number: None,
        }
    }

    fn at_line(mut self, n: usize) -> Self {
        self.line_number = Some(n);
        self
    }

    /// The 1-based line number of the offending line, when known
    /// (set by [`parse_schedule`]; single-line [`parse_primitive`] calls
    /// have no line context).
    pub fn line_number(&self) -> Option<usize> {
        self.line_number
    }
}

impl fmt::Display for ParsePrimitiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot parse `{}`: {}", self.line, self.message)
    }
}

impl std::error::Error for ParsePrimitiveError {}

/// Parses one primitive from its `Display` form.
///
/// Grammar: `KIND(stage[, loopvar]*[, [int[, int]*]][, "extra"]*)`.
/// Loop variables are bare identifiers; numeric parameters sit in one
/// bracketed list; extras are double-quoted.
///
/// # Errors
///
/// Returns [`ParsePrimitiveError`] on malformed input.
///
/// # Examples
///
/// ```
/// use tlp_schedule::{parse_primitive, PrimitiveKind};
/// let p = parse_primitive("SP(dense, i, [64, 8, 4])")?;
/// assert_eq!(p.kind, PrimitiveKind::Split);
/// assert_eq!(p.ints, vec![64, 8, 4]);
/// # Ok::<(), tlp_schedule::ParsePrimitiveError>(())
/// ```
pub fn parse_primitive(line: &str) -> Result<ConcretePrimitive, ParsePrimitiveError> {
    let line_trim = line.trim();
    let open = line_trim
        .find('(')
        .ok_or_else(|| ParsePrimitiveError::new("missing `(`", line_trim))?;
    if !line_trim.ends_with(')') {
        return Err(ParsePrimitiveError::new("missing trailing `)`", line_trim));
    }
    let kind_str = &line_trim[..open];
    let kind = PrimitiveKind::from_abbrev(kind_str)
        .ok_or_else(|| ParsePrimitiveError::new(format!("unknown kind `{kind_str}`"), line_trim))?;
    let body = &line_trim[open + 1..line_trim.len() - 1];

    // Split top-level commas, respecting one bracket level and quotes.
    let mut parts: Vec<String> = Vec::new();
    let mut depth = 0i32;
    let mut in_quote = false;
    let mut cur = String::new();
    for c in body.chars() {
        match c {
            '[' if !in_quote => {
                depth += 1;
                cur.push(c);
            }
            ']' if !in_quote => {
                depth -= 1;
                if depth < 0 {
                    return Err(ParsePrimitiveError::new("unbalanced `]`", line_trim));
                }
                cur.push(c);
            }
            '"' => {
                in_quote = !in_quote;
                cur.push(c);
            }
            ',' if depth == 0 && !in_quote => {
                parts.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if depth != 0 || in_quote {
        return Err(ParsePrimitiveError::new(
            "unbalanced brackets or quotes",
            line_trim,
        ));
    }
    if !cur.trim().is_empty() {
        parts.push(cur.trim().to_string());
    }
    let mut it = parts.into_iter();
    let stage = it
        .next()
        .filter(|s| !s.is_empty())
        .ok_or_else(|| ParsePrimitiveError::new("missing stage", line_trim))?;

    let mut p = ConcretePrimitive::new(kind, stage);
    for part in it {
        if let Some(list) = part.strip_prefix('[') {
            let list = list
                .strip_suffix(']')
                .ok_or_else(|| ParsePrimitiveError::new("malformed int list", line_trim))?;
            for n in list.split(',') {
                let n = n.trim();
                if n.is_empty() {
                    continue;
                }
                let v: i64 = n.parse().map_err(|_| {
                    ParsePrimitiveError::new(format!("bad integer `{n}`"), line_trim)
                })?;
                p.ints.push(v);
            }
        } else if let Some(q) = part.strip_prefix('"') {
            let extra = q
                .strip_suffix('"')
                .ok_or_else(|| ParsePrimitiveError::new("unterminated string", line_trim))?;
            p.extras.push(extra.to_string());
        } else if !part.is_empty() {
            p.loop_vars.push(part);
        }
    }
    Ok(p)
}

/// Parses a whole schedule (one primitive per non-empty line; `//` comments
/// ignored).
///
/// # Errors
///
/// Returns the first line's error, tagged with its 1-based line number
/// (see [`ParsePrimitiveError::line_number`]).
pub fn parse_schedule(text: &str) -> Result<ScheduleSequence, ParsePrimitiveError> {
    let mut seq = ScheduleSequence::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        seq.push(parse_primitive(line).map_err(|e| e.at_line(idx + 1))?);
    }
    Ok(seq)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;

    #[test]
    fn parses_split() {
        let p = parse_primitive("SP(dense, i, [64, 8, 4])").unwrap();
        assert_eq!(p.kind, PrimitiveKind::Split);
        assert_eq!(p.stage, "dense");
        assert_eq!(p.loop_vars, vec!["i"]);
        assert_eq!(p.ints, vec![64, 8, 4]);
    }

    #[test]
    fn parses_annotation_with_extra() {
        let p = parse_primitive("AN(dense, i.0@j.0, \"parallel\")").unwrap();
        assert_eq!(p.kind, PrimitiveKind::Annotation);
        assert_eq!(p.loop_vars, vec!["i.0@j.0"]);
        assert_eq!(p.extras, vec!["parallel"]);
    }

    #[test]
    fn display_parse_roundtrip() -> Result<(), ParsePrimitiveError> {
        let cases = [
            ConcretePrimitive::new(PrimitiveKind::Split, "conv2d")
                .with_loops(["oc"])
                .with_ints([64, 4, 2, 8]),
            ConcretePrimitive::new(PrimitiveKind::Fuse, "conv2d").with_loops(["n.0", "oc.0"]),
            ConcretePrimitive::new(PrimitiveKind::Pragma, "conv2d")
                .with_ints([512])
                .with_extras(["auto_unroll_max_step"]),
            ConcretePrimitive::new(PrimitiveKind::ComputeInline, "relu"),
        ];
        for p in cases {
            let text = p.to_string();
            let back = parse_primitive(&text)?;
            assert_eq!(back, p, "roundtrip of `{text}`");
        }
        Ok(())
    }

    #[test]
    fn schedule_errors_carry_line_numbers() {
        let err = parse_schedule("// header\nSP(dense, i, [64, 8])\nNOPE(x)").unwrap_err();
        assert_eq!(err.line_number(), Some(3));
        assert_eq!(err.line, "NOPE(x)");
        // Single-primitive parsing has no line context.
        assert_eq!(parse_primitive("NOPE(x)").unwrap_err().line_number(), None);
    }

    #[test]
    fn parses_multiline_schedule_with_comments() {
        let text = "\
// tiled matmul
SP(dense, i, [64, 8])
SP(dense, j, [64, 8])

AN(dense, i.0, \"parallel\")";
        let seq = parse_schedule(text).unwrap();
        assert_eq!(seq.len(), 3);
        let extras: Vec<&str> = seq.get(2).unwrap().extras.iter().collect();
        assert_eq!(extras, ["parallel"]);
    }

    #[test]
    fn error_cases() {
        assert!(parse_primitive("NOPE(x)").is_err());
        assert!(parse_primitive("SP dense").is_err());
        assert!(parse_primitive("SP(dense, i, [a])").is_err());
        assert!(parse_primitive("SP(dense, [1, 2").is_err());
        assert!(parse_primitive("AN(dense, i, \"unterminated)").is_err());
        assert!(parse_primitive("SP()").is_err());
    }

    #[test]
    fn sequence_display_parse_roundtrip() {
        let seq: ScheduleSequence = [
            ConcretePrimitive::new(PrimitiveKind::Split, "dense")
                .with_loops(["i"])
                .with_ints([64, 8, 4]),
            ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
                .with_loops(["i.2"])
                .with_extras(["vectorize"]),
        ]
        .into_iter()
        .collect();
        let back = parse_schedule(&seq.to_string()).unwrap();
        assert_eq!(back, seq);
    }
}
