//! The README's metrics catalogue and the `/metrics` exposition name the
//! same families: every `# TYPE maybms_…` family `render_prometheus()`
//! emits is documented, and every `maybms_…` family the README names is
//! emitted (a histogram's `_bucket` / `_sum` / `_count` series count as
//! its family).

use std::collections::BTreeSet;

/// The `maybms_…` words of `text`, in order of appearance.
fn maybms_words(text: &str) -> Vec<&str> {
    let is_word = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
    let mut words = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("maybms_") {
        let preceded = rest[..at].chars().next_back().is_some_and(is_word);
        let tail = &rest[at..];
        let len = tail.find(|c: char| !is_word(c)).unwrap_or(tail.len());
        if !preceded {
            words.push(&tail[..len]);
        }
        rest = &tail[len..];
    }
    words
}

#[test]
fn readme_names_exactly_the_emitted_families() {
    let exposition = maybms_obs::render_prometheus();
    let mut histograms = BTreeSet::new();
    let emitted: BTreeSet<&str> = exposition
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|l| {
            let (name, kind) = l.split_once(' ').expect("# TYPE name kind");
            if kind == "histogram" {
                histograms.insert(name);
            }
            name
        })
        .collect();
    let family = |word: &'static str| -> &'static str {
        ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|s| word.strip_suffix(s))
            .find(|base| histograms.contains(base))
            .unwrap_or(word)
    };
    let documented: BTreeSet<&str> = maybms_words(include_str!("../README.md"))
        .into_iter()
        .map(family)
        .collect();
    let undocumented: Vec<_> = emitted.difference(&documented).collect();
    let not_emitted: Vec<_> = documented.difference(&emitted).collect();
    assert!(
        undocumented.is_empty(),
        "emitted but not in README: {undocumented:?}"
    );
    assert!(
        not_emitted.is_empty(),
        "in README but not emitted: {not_emitted:?}"
    );
}
