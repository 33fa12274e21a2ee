//! Temporal scenario: a reservation table with open-ended validity.
//!
//! Demonstrates the paper's Section 4.5 (Allen topological relations) and
//! Section 4.6 (`now` / `infinity` endpoints) on a hotel-room booking
//! system with valid-time semantics.
//!
//! ```sh
//! cargo run --example temporal_reservations
//! ```

use ri_tree::mem::sort::sort_ids;
use ri_tree::prelude::*;

// Days since 2020-01-01 as our time axis.
const D2024: i64 = 1461;

fn main() {
    let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(DEFAULT_PAGE_SIZE)));
    let db = Arc::new(Database::create(pool).unwrap());
    let bookings = RiTree::create(db, "bookings").unwrap();

    // Closed bookings: [check-in, check-out] day ranges.
    let stays = [
        (D2024 + 10, D2024 + 14), // id 1
        (D2024 + 12, D2024 + 20), // id 2
        (D2024 + 14, D2024 + 15), // id 3
        (D2024 + 21, D2024 + 28), // id 4
    ];
    for (i, &(a, b)) in stays.iter().enumerate() {
        bookings.insert(Interval::new(a, b).unwrap(), i as i64 + 1).unwrap();
    }

    // A long-term corporate lease with no agreed end: upper = infinity.
    bookings.insert_open(D2024 + 5, OpenEnd::Infinity, 100).unwrap();
    // A guest currently checked in: the stay is valid "until now".
    bookings.insert_open(D2024 + 13, OpenEnd::Now, 200).unwrap();

    // Who occupies a room during days 14..16, as of day 18?
    let now = D2024 + 18;
    let q = Interval::new(D2024 + 14, D2024 + 16).unwrap();
    let mut occupied = bookings.intersection_at(q, now).unwrap();
    sort_ids(&mut occupied); // plan order → ascending ids
    println!("occupied during day 14..16 (now = 18): ids {occupied:?}");
    assert_eq!(occupied, vec![1, 2, 3, 100, 200]);

    // The same query evaluated *before* the now-guest arrived: no id 200.
    let mut earlier = bookings.intersection_at(q, D2024 + 12).unwrap();
    sort_ids(&mut earlier);
    println!("same query as of day 12:              ids {earlier:?}");
    assert!(!earlier.contains(&200));

    // Allen relations: fine-grained temporal relationships (Section 4.5).
    let staff_window = Interval::new(D2024 + 14, D2024 + 20).unwrap();
    println!("\nrelative to the staff window {staff_window}:");
    for rel in [
        AllenRelation::Before,
        AllenRelation::Meets,
        AllenRelation::Overlaps,
        AllenRelation::Finishes,
        AllenRelation::MetBy,
        AllenRelation::After,
    ] {
        let ids = bookings.allen_at(rel, staff_window, now).unwrap();
        println!("  {rel:?}: {ids:?}");
    }

    // "meets": checkout exactly at window start (id 1 ends on day 14).
    assert!(bookings.allen_at(AllenRelation::Meets, staff_window, now).unwrap().contains(&1));
    // "met-by": check-in exactly at window end (id 4 starts on day 21? no —
    // met-by means lower == window.upper, i.e. day 20; nobody qualifies).
    // "after": bookings strictly after the window (id 4).
    assert!(bookings.allen_at(AllenRelation::After, staff_window, now).unwrap().contains(&4));

    // Close out the now-booking: the guest checks out on day 19, giving the
    // stay a fixed upper bound.
    bookings.delete_open(D2024 + 13, OpenEnd::Now, 200).unwrap();
    bookings.insert(Interval::new(D2024 + 13, D2024 + 19).unwrap(), 200).unwrap();
    let mut later = bookings.intersection_at(q, D2024 + 40).unwrap();
    sort_ids(&mut later);
    println!("\nafter checkout, day 14..16 query still finds the stay: {later:?}");
    assert!(later.contains(&200));
}
