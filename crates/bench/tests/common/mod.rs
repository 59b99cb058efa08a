//! Shared harness: run a σ/π/probe chain through `UStream` and compare
//! it, strictly, with the row-major scalar oracle
//! ([`maybms_bench::naive::fused_chain`]).

use maybms_bench::naive::{fused_chain, Step};
use maybms_engine::ops::ProjectItem;
use maybms_engine::Value;
use maybms_par::ThreadPool;
use maybms_pipe::UStream;
use maybms_urel::{URelation, Wsd};

/// The `UStream` recording `steps` over `source`. With `compact`, every
/// probe's build side is columnar at rest (dictionary-encoded text keys).
pub fn stream(source: &URelation, steps: &[Step], compact: bool) -> maybms_urel::Result<UStream> {
    let mut s = UStream::new(source.clone());
    for step in steps {
        s = match step {
            Step::Filter(p) => s.filter(p)?,
            Step::Project(es) => {
                let items: Vec<ProjectItem> = es
                    .iter()
                    .enumerate()
                    .map(|(i, e)| ProjectItem::new(e.clone(), format!("c{i}")))
                    .collect();
                s.project(&items)?
            }
            Step::Probe { build, left_keys, right_keys } => {
                let build = if compact { build.compact() } else { build.clone() };
                s.hash_join(build, left_keys, right_keys)?
            }
        };
    }
    Ok(s)
}

/// A row as a string that tells `Int(1)` from `Float(1.0)` (which
/// compare equal) and shows float bits and WSD assignments.
fn render(values: &[Value], wsd: &Wsd) -> String {
    format!("{values:?} | {wsd:?}")
}

/// `UStream` ≡ oracle — values (variants included), WSDs, row order, and
/// the first runtime error's message — over the row-major source and its
/// compacted (columnar-at-rest) twin, at 1/2/8 threads and morsel sizes
/// down to a single row. Panics on divergence (the vendored proptest
/// reports panics as case failures).
pub fn check_chain(source: &URelation, steps: &[Step]) {
    let want = fused_chain(source, steps)
        .map(|rows| rows.iter().map(|(v, w)| render(v, w)).collect::<Vec<_>>())
        .map_err(|(row, e)| (row, e.to_string()));
    for (layout, src, compact) in
        [("row-major", source.clone(), false), ("compacted", source.compact(), true)]
    {
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            for morsel in [1usize, 4] {
                let at = format!("{layout} source, {threads} threads, morsel {morsel}");
                let got = stream(&src, steps, compact)
                    .expect("chain binds")
                    .collect_with(&pool, morsel, (&maybms_obs::QueryStats::new(), "test"));
                match (&want, got) {
                    (Ok(w), Ok(g)) => {
                        let g: Vec<String> =
                            g.tuples().iter().map(|t| render(t.data.values(), &t.wsd)).collect();
                        assert_eq!(&g, w, "{at}")
                    }
                    (Err((row, w)), Err(g)) => {
                        assert_eq!(&g.to_string(), w, "first error (source row {row}), {at}")
                    }
                    (w, g) => panic!(
                        "oracle {:?} vs executor {:?}, {at}",
                        w.as_ref().map(Vec::len),
                        g.map(|r| r.len()).map_err(|e| e.to_string())
                    ),
                }
            }
        }
    }
}
