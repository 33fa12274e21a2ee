//! Engineering scenario: inaccurate measurements with tolerances.
//!
//! The paper's introduction lists "inaccurate measurements with tolerances
//! in engineering databases" as a motivating workload: each measured value
//! is really an interval `[value − tol, value + tol]`, and questions like
//! "which parts could have diameter 25.00 mm?" are stabbing queries.
//!
//! ```sh
//! cargo run --example engineering_tolerances
//! ```

use ri_tree::mem::sort::sort_ids;
use ri_tree::prelude::*;

/// Fixed-point micrometres (1 mm = 1000 units) keep the domain integral.
const MM: i64 = 1000;

fn main() {
    let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(DEFAULT_PAGE_SIZE)));
    let db = Arc::new(Database::create(Arc::clone(&pool)).unwrap());
    let shafts = RiTree::create(db, "shaft_diameters").unwrap();

    // (part id, measured diameter in µm, tolerance in µm)
    let measurements: &[(i64, i64, i64)] = &[
        (1001, 25 * MM, 40),
        (1002, 25 * MM + 60, 25),
        (1003, 24 * MM + 900, 80),
        (1004, 26 * MM, 15),
        (1005, 25 * MM - 30, 10),
        (1006, 25 * MM + 2, 5),
    ];
    for &(id, value, tol) in measurements {
        shafts.insert(Interval::new(value - tol, value + tol).unwrap(), id).unwrap();
    }
    println!("stored {} measurement intervals", shafts.count().unwrap());

    // Which parts could actually measure exactly 25.000 mm?
    let spec = 25 * MM;
    let mut candidates = shafts.stab(spec).unwrap();
    sort_ids(&mut candidates); // plan order → ascending ids
    println!("parts whose tolerance window contains 25.000 mm: {candidates:?}");
    assert_eq!(candidates, vec![1001, 1006]);

    // Which parts might fall inside the fit range [24.95 mm, 25.05 mm]?
    let fit = Interval::new(spec - 50, spec + 50).unwrap();
    let mut maybe_fit = shafts.intersection(fit).unwrap();
    sort_ids(&mut maybe_fit);
    println!("parts possibly within {fit} µm: {maybe_fit:?}");

    // Which parts are *certainly* within the fit range?  Their whole
    // tolerance window must lie inside: During / Starts / Finishes / Equals.
    let mut certain = Vec::new();
    for rel in [
        AllenRelation::During,
        AllenRelation::Starts,
        AllenRelation::Finishes,
        AllenRelation::Equals,
    ] {
        certain.extend(shafts.allen(rel, fit).unwrap());
    }
    certain.sort_unstable();
    certain.dedup();
    println!("parts certainly within the fit range:  {certain:?}");
    assert!(certain.contains(&1001) && certain.contains(&1005) && certain.contains(&1006));
    assert!(!certain.contains(&1002), "1002's window sticks out above the range");

    // Quality control: a batch of 50k simulated measurements, then the
    // paper's headline query again at scale.
    let mut x = 0x1EE7u64;
    for i in 0..50_000i64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let value = 20 * MM + (x % (10 * MM as u64)) as i64;
        let tol = 5 + (x >> 40) as i64 % 95;
        shafts.insert(Interval::new(value - tol, value + tol).unwrap(), 10_000 + i).unwrap();
    }
    let before = pool.stats().snapshot();
    let hits = shafts.stab(spec).unwrap();
    let io = pool.stats().snapshot().since(&before);
    println!(
        "\nat {} intervals: stab(25.000 mm) -> {} candidate parts, {} physical reads",
        shafts.count().unwrap(),
        hits.len(),
        io.physical_reads
    );
}
