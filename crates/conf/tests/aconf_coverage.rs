//! Statistical and scaling tests of the compiled Karp–Luby sampler and the
//! demand-driven DKLR driver: the (ε, δ) guarantee over hundreds of seeds
//! on the lineage shapes the benchmark produces, unbiasedness of the
//! indicator, and cost independent of the world table's size and free of
//! per-sample allocation. A few million draws in all; CI also runs this
//! file with `--release`, where float and integer arithmetic is the build
//! users get.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use maybms_conf::dklr::{aconf_seeded_report, approximate_seeded, DklrOptions};
use maybms_conf::karp_luby::KarpLuby;
use maybms_conf::{exact, Dnf};
use maybms_urel::{Assignment, Var, WorldTable, Wsd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

thread_local! {
    /// Heap allocations made by the current thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread (a DKLR run is
/// single-threaded, so a test reads its own run's count whatever the
/// other tests of this binary are doing).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the counter is a const-
// initialised thread-local `Cell`, so touching it neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

fn clause(pairs: &[(Var, u16)]) -> Wsd {
    Wsd::from_assignments(pairs.iter().map(|&(v, a)| Assignment::new(v, a)).collect())
        .expect("consistent clause")
}

fn random_dist(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let w: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..1.0)).collect();
    let total: f64 = w.iter().sum();
    w.iter().map(|x| x / total).collect()
}

/// One player's three-step random walk over four states (Figure 1 as the
/// benchmark scales it): step `k` has one four-valued variable per state
/// the player may be in, as `repair key player, init` creates them.
struct WalkPlayer {
    steps: [[Var; 4]; 3],
}

impl WalkPlayer {
    fn new(wt: &mut WorldTable, rng: &mut StdRng) -> WalkPlayer {
        let mut var = || {
            wt.new_var(&random_dist(rng, 4))
                .expect("valid distribution")
        };
        WalkPlayer {
            steps: std::array::from_fn(|_| std::array::from_fn(|_| var())),
        }
    }

    /// The 16 paths from state 0 that end in `last`: pairwise exclusive.
    fn paths_to(&self, last: u16) -> Vec<Wsd> {
        let [s1, s2, s3] = &self.steps;
        (0..4u16)
            .flat_map(|a| (0..4u16).map(move |b| (a, b)))
            .map(|(a, b)| clause(&[(s1[0], a), (s2[a as usize], b), (s3[b as usize], last)]))
            .collect()
    }
}

/// Pad the world table so the lineage's variables are not the first ids.
fn pad(wt: &mut WorldTable, n: usize) {
    for _ in 0..n {
        wt.new_var(&[0.5, 0.5]).expect("valid distribution");
    }
}

/// Over `seeds` seeds, `approximate_seeded(ε = 0.1, δ = 0.05)` must land
/// within `ε·p` of the exact d-tree answer on at least a `(1 − δ) − slack`
/// fraction; the slack (0.05, three standard deviations of a 200-run
/// failure count at δ) keeps a correct sampler from failing the test.
fn assert_coverage(name: &str, dnf: &Dnf, wt: &WorldTable) {
    let (seeds, epsilon, delta, slack) = (240u64, 0.1, 0.05, 0.05);
    let truth = exact::probability(dnf, wt).expect("exact");
    assert!(truth > 0.0, "{name}: degenerate case");
    let kl = KarpLuby::new(dnf, wt).expect("compile");
    let opts = DklrOptions::new(epsilon, delta);
    let mut inside = 0u64;
    for seed in 0..seeds {
        let a = approximate_seeded(&kl, &opts, 1000 + seed).expect("aconf");
        assert_eq!(a.drawn, a.samples, "{name}: drew ahead of demand");
        assert_eq!(a.cut_batch, None);
        if (a.estimate - truth).abs() <= epsilon * truth {
            inside += 1;
        }
    }
    let fraction = inside as f64 / seeds as f64;
    assert!(
        fraction >= 1.0 - delta - slack,
        "{name}: only {inside}/{seeds} estimates within ε·p of {truth}"
    );
}

/// The compiled indicator is unbiased: over `n` draws its mean is within
/// 4σ of `P/S`.
fn assert_indicator_mean(name: &str, dnf: &Dnf, wt: &WorldTable) {
    let truth = exact::probability(dnf, wt).expect("exact");
    let kl = KarpLuby::new(dnf, wt).expect("compile");
    let mu = (truth / kl.scale()).min(1.0);
    let n = 400_000usize;
    let mean = kl.estimate_seeded(n, 77) / kl.scale();
    let sigma = (mu * (1.0 - mu) / n as f64).sqrt();
    assert!(
        (mean - mu).abs() <= 4.0 * sigma + 1e-12,
        "{name}: indicator mean {mean} vs P/S {mu} (σ {sigma})"
    );
}

fn check(name: &str, dnf: &Dnf, wt: &WorldTable) {
    assert_coverage(name, dnf, wt);
    assert_indicator_mean(name, dnf, wt);
}

#[test]
fn coverage_walk_group_of_16_exclusive_clauses() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut wt = WorldTable::new();
    pad(&mut wt, 500);
    let player = WalkPlayer::new(&mut wt, &mut rng);
    for last in 0..4 {
        let dnf = Dnf::new(player.paths_to(last));
        assert_eq!(dnf.len(), 16);
        check(&format!("walk group, final state {last}"), &dnf, &wt);
    }
}

#[test]
fn coverage_state_group_of_two_players() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut wt = WorldTable::new();
    let p = WalkPlayer::new(&mut wt, &mut rng);
    pad(&mut wt, 300);
    let q = WalkPlayer::new(&mut wt, &mut rng);
    for last in 0..4 {
        // "Some player ends in `last`": clauses of one player share its
        // variables, the two players are independent.
        let mut clauses = p.paths_to(last);
        clauses.extend(q.paths_to(last));
        let dnf = Dnf::new(clauses);
        assert_eq!(dnf.len(), 32);
        check(
            &format!("two-player state group, final state {last}"),
            &dnf,
            &wt,
        );
    }
}

#[test]
fn coverage_multivalued_variables_with_a_dead_alternative() {
    let mut wt = WorldTable::new();
    let x = wt.new_var(&[0.3, 0.0, 0.7]).unwrap();
    let y = wt.new_var(&[0.0, 0.25, 0.25, 0.5]).unwrap();
    let z = wt.new_var(&[0.6, 0.4, 0.0]).unwrap();
    let dnf = Dnf::new(vec![
        clause(&[(x, 0), (y, 1)]),
        clause(&[(x, 1), (z, 0)]), // zero mass: x never takes its dead alternative
        clause(&[(y, 0)]),         // zero mass
        clause(&[(x, 2), (y, 3), (z, 1)]),
        clause(&[(y, 2), (z, 0)]),
        clause(&[(z, 2), (x, 0)]), // zero mass
    ]);
    check("multi-valued with dead alternatives", &dnf, &wt);
}

#[test]
fn coverage_single_and_duplicate_clauses() {
    let mut wt = WorldTable::new();
    let x = wt.new_var(&[0.35, 0.65]).unwrap();
    let y = wt.new_var(&[0.2, 0.5, 0.3]).unwrap();
    let c = clause(&[(x, 1), (y, 2)]);
    // One clause: the indicator is constantly 1 and every estimate is S.
    let single = Dnf::new(vec![c.clone()]);
    check("single clause", &single, &wt);
    let kl = KarpLuby::new(&single, &wt).unwrap();
    let a = approximate_seeded(&kl, &DklrOptions::new(0.1, 0.05), 5).unwrap();
    assert!((a.estimate - kl.scale()).abs() <= 1e-12 * kl.scale());
    // The same clause three times, and next to a different one.
    check(
        "duplicate clause",
        &Dnf::new(vec![c.clone(), c.clone(), c.clone()]),
        &wt,
    );
    check(
        "duplicate beside another",
        &Dnf::new(vec![c.clone(), clause(&[(x, 0)]), c]),
        &wt,
    );
}

/// Best-of-five wall time of one `aconf(ε, 0.05)` over `dnf`, compile
/// included, with the samples and heap allocations of the last run.
fn aconf_cost(dnf: &Dnf, wt: &WorldTable, epsilon: f64) -> (Duration, u64, u64) {
    let mut best = Duration::MAX;
    let mut last = (0, 0);
    for _ in 0..5 {
        let t0 = Instant::now();
        let (a, allocs) =
            allocations_during(|| aconf_seeded_report(dnf, wt, epsilon, 0.05, 9).expect("aconf"));
        best = best.min(t0.elapsed());
        last = (a.samples, allocs);
    }
    (best, last.0, last.1)
}

#[test]
fn cost_is_independent_of_world_table_size_and_sample_count() {
    let lineage = |wt: &mut WorldTable| {
        let mut rng = StdRng::seed_from_u64(3);
        Dnf::new(WalkPlayer::new(wt, &mut rng).paths_to(2))
    };
    let mut small = WorldTable::new();
    pad(&mut small, 100 - 12);
    let small_dnf = lineage(&mut small);
    let mut big = WorldTable::new();
    pad(&mut big, 2_000_000 - 12);
    let big_dnf = lineage(&mut big);
    assert_eq!(big.num_vars(), 2_000_000);

    let (t_small, n_small, allocs_small) = aconf_cost(&small_dnf, &small, 0.1);
    let (t_big, n_big, allocs_big) = aconf_cost(&big_dnf, &big, 0.1);
    // Same lineage, same seed: the same run, wherever the variables sit.
    assert_eq!(n_small, n_big);
    assert_eq!(allocs_small, allocs_big);
    // A per-sample scratch world sized by the table (4 MB zeroed per draw
    // here) would make the big run thousands of times slower; the bound
    // is loose because tests of this binary run in parallel.
    assert!(
        t_big <= 10 * t_small + Duration::from_millis(20),
        "2 000 000-variable table {t_big:?} vs 100-variable table {t_small:?}"
    );
    // No per-sample allocation: a run with over 3× the samples allocates
    // exactly as often.
    let (_, n_tight, allocs_tight) = aconf_cost(&small_dnf, &small, 0.02);
    assert!(n_tight > 3 * n_small, "{n_tight} vs {n_small} samples");
    assert_eq!(
        allocs_tight, allocs_small,
        "allocations grew with the sample count"
    );
}
