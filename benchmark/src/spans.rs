//! Turning harvested span trees into per-label time.
//!
//! A label's *self time* is what its spans spent with no child span open:
//! the span's duration minus the union of its children's intervals, each
//! clipped to the span. Children on pool workers overlap each other, so
//! the sweep below splits every instant evenly among the spans that are
//! innermost at that instant. Self times therefore add up to the root's
//! duration exactly, and shares add up to 1.

use std::collections::{BTreeMap, HashMap};

use maybms_obs::trace::{AttrValue, SpanRecord};

/// Per-label totals over every span tree fed to [`Attribution::add_tree`].
#[derive(Debug, Default, Clone)]
pub struct Attribution {
    /// Self time per label, in nanoseconds; sums to `root_nanos`.
    pub self_nanos: BTreeMap<&'static str, f64>,
    /// Sum of raw durations per label (exceeds wall when workers overlap).
    pub busy_nanos: BTreeMap<&'static str, u64>,
    /// Durations per label, for percentiles.
    pub durations: BTreeMap<&'static str, Vec<u64>>,
    /// Sum of the roots' durations: the denominator of every share.
    pub root_nanos: u64,
    /// Spans seen.
    pub spans: u64,
}

impl Attribution {
    /// Fold in one complete span tree (everything `spans_for_root` returned).
    pub fn add_tree(&mut self, spans: &[SpanRecord]) {
        // Parents get their ids before their children do, so id order
        // visits a parent's clipped interval before it is needed.
        let mut by_id: Vec<usize> = (0..spans.len()).collect();
        by_id.sort_by_key(|&i| spans[i].id);
        let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut interval = vec![(0u64, 0u64); spans.len()];
        for &i in &by_id {
            let s = &spans[i];
            let (mut lo, mut hi) = (s.start_nanos, s.end_nanos());
            match index.get(&s.parent) {
                Some(&p) => {
                    lo = lo.clamp(interval[p].0, interval[p].1);
                    hi = hi.clamp(interval[p].0, interval[p].1);
                }
                None => self.root_nanos += s.dur_nanos,
            }
            interval[i] = (lo, hi);
            *self.busy_nanos.entry(s.label).or_default() += s.dur_nanos;
            self.durations.entry(s.label).or_default().push(s.dur_nanos);
        }
        self.spans += spans.len() as u64;

        // (time, is_start, tie-break, span): ends sort before starts, a
        // parent starts before its child and ends after it.
        let mut events: Vec<(u64, bool, i128, usize)> = Vec::with_capacity(spans.len() * 2);
        for (i, &(lo, hi)) in interval.iter().enumerate() {
            if hi > lo {
                events.push((lo, true, spans[i].id as i128, i));
                events.push((hi, false, -(spans[i].id as i128), i));
            }
        }
        events.sort_unstable();

        let mut open_children = vec![0u32; spans.len()];
        let mut open = vec![false; spans.len()];
        let mut innermost: BTreeMap<&'static str, u32> = BTreeMap::new();
        let mut innermost_total = 0u32;
        let mut now = 0u64;
        for (t, is_start, _, i) in events {
            if innermost_total > 0 && t > now {
                let slice = (t - now) as f64 / innermost_total as f64;
                for (label, n) in &innermost {
                    *self.self_nanos.entry(label).or_default() += slice * *n as f64;
                }
            }
            now = t;
            let parent = index.get(&spans[i].parent).copied().filter(|&p| open[p]);
            let mut shift = |label: &'static str, up: bool| {
                let n = innermost.entry(label).or_default();
                if up {
                    *n += 1;
                    innermost_total += 1;
                } else {
                    *n -= 1;
                    innermost_total -= 1;
                }
            };
            if is_start {
                open[i] = true;
                shift(spans[i].label, true);
                if let Some(p) = parent {
                    if open_children[p] == 0 {
                        shift(spans[p].label, false);
                    }
                    open_children[p] += 1;
                }
            } else {
                open[i] = false;
                shift(spans[i].label, false);
                if let Some(p) = parent {
                    open_children[p] -= 1;
                    if open_children[p] == 0 {
                        shift(spans[p].label, true);
                    }
                }
            }
        }
    }

    /// Share of all root time spent in `labels`' own code.
    pub fn share(&self, labels: &[&str]) -> f64 {
        // `fold` from +0.0: `sum()` of nothing is -0.0, which prints as "-0".
        let own = labels
            .iter()
            .filter_map(|l| self.self_nanos.get(l))
            .fold(0.0, |a, b| a + b);
        own / (self.root_nanos as f64).max(1.0)
    }

    /// Sum of raw durations of `labels`, in milliseconds.
    pub fn busy_ms(&self, labels: &[&str]) -> f64 {
        labels
            .iter()
            .filter_map(|l| self.busy_nanos.get(l))
            .sum::<u64>() as f64
            / 1e6
    }
}

/// The attribute `key` of `span`, if it is a number.
pub fn attr_u64(span: &SpanRecord, key: &str) -> Option<u64> {
    span.attrs
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            AttrValue::Uint(u) => Some(*u),
            AttrValue::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        })
}

/// Does `span` carry the text attribute `key = value`?
pub fn attr_is(span: &SpanRecord, key: &str, value: &str) -> bool {
    span.attrs
        .iter()
        .any(|(k, v)| *k == key && matches!(v, AttrValue::Str(s) if *s == value))
}

/// The spans as one Chrome `trace_event` array (`chrome://tracing`,
/// Perfetto).
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(maybms_obs::trace::trace_event_json)
        .collect();
    format!("[\n{}\n]\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, label: &'static str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            root: 1,
            label,
            start_nanos: start,
            dur_nanos: dur,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn nested_spans_subtract_their_children() {
        let mut a = Attribution::default();
        a.add_tree(&[
            span(3, 2, "pipeline", 30, 40),
            span(2, 1, "execute", 20, 70),
            span(4, 1, "parse", 5, 10),
            span(1, 0, "statement", 0, 100),
        ]);
        assert_eq!(a.root_nanos, 100);
        assert_eq!(a.self_nanos["statement"], 20.0);
        assert_eq!(a.self_nanos["parse"], 10.0);
        assert_eq!(a.self_nanos["execute"], 30.0);
        assert_eq!(a.self_nanos["pipeline"], 40.0);
        assert!((a.share(&["statement", "execute"]) - 0.5).abs() < 1e-12);
        assert_eq!(a.busy_ms(&["execute"]), 70.0 / 1e6);
    }

    #[test]
    fn overlapping_workers_share_the_wall_and_still_sum_to_the_root() {
        // Two conf spans on two workers overlap for 20 ns inside a breaker
        // that outlives them; one leaks 10 ns past its parent and is clipped.
        let mut a = Attribution::default();
        a.add_tree(&[
            span(1, 0, "statement", 0, 100),
            span(2, 1, "breaker", 10, 80),
            span(3, 2, "conf", 20, 40),
            span(4, 2, "conf", 40, 60),
        ]);
        let total: f64 = a.self_nanos.values().sum();
        assert!((total - 100.0).abs() < 1e-9, "{total}");
        // conf is innermost over [20, 90): 70 ns of wall, 100 ns busy.
        assert!((a.self_nanos["conf"] - 70.0).abs() < 1e-9);
        assert_eq!(a.busy_nanos["conf"], 100);
        assert!((a.self_nanos["breaker"] - 10.0).abs() < 1e-9);
    }
}
