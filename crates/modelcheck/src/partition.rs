//! Pass 2 — partition integrity: trunk and head parameter sets are
//! disjoint and jointly exhaustive, every declared head is populated, and
//! all heads share head 0's layout (the invariant `grow_head_from` and the
//! frozen-trunk continual guarantee rely on).

use crate::diagnostic::{Code, Diagnostic, Severity};
use crate::spec::ModelSpec;
use std::collections::BTreeMap;
use tlp_nn::ParamStore;

/// Runs the partition-integrity pass.
pub fn check(spec: &ModelSpec, store: &ParamStore, out: &mut Vec<Diagnostic>) {
    // suffix → shape per head, for the layout comparison.
    let mut layouts: Vec<BTreeMap<String, Vec<usize>>> = vec![BTreeMap::new(); spec.heads()];

    for id in store.ids() {
        let name = store.name(id);
        let matching: Vec<usize> = (0..spec.heads())
            .filter(|&h| name.starts_with(spec.head_prefixes[h].as_str()))
            .collect();
        if matching.len() > 1 {
            out.push(
                Diagnostic::at(
                    Code::HeadOverlap,
                    Severity::Error,
                    name,
                    format!(
                        "parameter matches {} head prefixes; trunk/head partition is ambiguous",
                        matching.len()
                    ),
                )
                .on_head(matching[0]),
            );
        }
        if let Some(&h) = matching.first() {
            let suffix = name[spec.head_prefixes[h].len()..].to_string();
            layouts[h].insert(suffix, store.value(id).shape().to_vec());
        } else if let Some(idx) = claimed_head_index(name, &spec.head_stem) {
            // A trunk-classified name that *claims* a head index means the
            // partition is not exhaustive: `{stem}{digits}.` beyond the
            // declared head count is an undeclared head.
            if idx >= spec.heads() {
                out.push(
                    Diagnostic::at(
                        Code::HeadIndexOutOfRange,
                        Severity::Error,
                        name,
                        format!(
                            "parameter claims head {idx}, but the model declares {} heads",
                            spec.heads()
                        ),
                    )
                    .on_head(idx),
                );
            }
        }
    }

    for (h, layout) in layouts.iter().enumerate() {
        if layout.is_empty() {
            out.push(
                Diagnostic::global(
                    Code::EmptyHead,
                    Severity::Error,
                    format!(
                        "declared head {h} (prefix `{}`) owns no parameters",
                        spec.head_prefixes[h]
                    ),
                )
                .on_head(h),
            );
        }
    }

    if let Some((first, rest)) = layouts.split_first() {
        for (i, layout) in rest.iter().enumerate() {
            let h = i + 1;
            if layout.is_empty() || first.is_empty() || layout == first {
                continue;
            }
            let detail = layout_diff(first, layout);
            out.push(
                Diagnostic::global(
                    Code::HeadLayoutMismatch,
                    Severity::Error,
                    format!("head {h} layout differs from head 0: {detail}"),
                )
                .on_head(h),
            );
        }
    }
}

/// Parses `{stem}{digits}.` at the start of `name`.
fn claimed_head_index(name: &str, stem: &str) -> Option<usize> {
    let rest = name.strip_prefix(stem)?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    if digits.is_empty() || !rest[digits.len()..].starts_with('.') {
        return None;
    }
    digits.parse().ok()
}

/// Human-readable first difference between two head layouts.
fn layout_diff(a: &BTreeMap<String, Vec<usize>>, b: &BTreeMap<String, Vec<usize>>) -> String {
    for (suffix, shape) in a {
        match b.get(suffix) {
            None => return format!("missing `{suffix}`"),
            Some(other) if other != shape => {
                return format!("`{suffix}` is {other:?}, head 0 has {shape:?}")
            }
            Some(_) => {}
        }
    }
    for suffix in b.keys() {
        if !a.contains_key(suffix) {
            return format!("extra `{suffix}`");
        }
    }
    "layouts differ".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claimed_head_index_parses_stem_digit_dot() {
        assert_eq!(claimed_head_index("head7.out1.w", "head"), Some(7));
        assert_eq!(claimed_head_index("head10.out1.w", "head"), Some(10));
        assert_eq!(claimed_head_index("header.w", "head"), None);
        assert_eq!(claimed_head_index("head.out1.w", "head"), None);
        assert_eq!(claimed_head_index("backbone.up1.w", "head"), None);
    }
}
