//! Object-oriented scenario: class hierarchies as intervals.
//!
//! The paper's introduction cites "hierarchical type systems in
//! object-oriented databases" [KRVV 93] as an interval workload: numbering
//! a class hierarchy in depth-first order assigns each class the interval
//! `[dfs_entry, dfs_exit]`, and `B` is a (transitive) subtype of `A`
//! exactly when `interval(B) ⊆ interval(A)`.  "Find all types compatible
//! with T" becomes a stabbing/containment query on the RI-tree.
//!
//! ```sh
//! cargo run --example type_hierarchy
//! ```

use ri_tree::mem::sort::sort_ids;
use ri_tree::prelude::*;
use std::collections::HashMap;

struct Hierarchy {
    names: Vec<&'static str>,
    children: Vec<Vec<usize>>,
    spans: Vec<(i64, i64)>,
}

impl Hierarchy {
    fn new(edges: &[(&'static str, &'static str)]) -> Hierarchy {
        let mut ids: HashMap<&str, usize> = HashMap::new();
        let mut names = Vec::new();
        let mut intern = |n: &'static str, names: &mut Vec<&'static str>| {
            *ids.entry(n).or_insert_with(|| {
                names.push(n);
                names.len() - 1
            })
        };
        let mut children: Vec<Vec<usize>> = Vec::new();
        for &(parent, child) in edges {
            let p = intern(parent, &mut names);
            let c = intern(child, &mut names);
            children.resize(names.len(), Vec::new());
            children[p].push(c);
        }
        let mut h = Hierarchy { names, children, spans: Vec::new() };
        h.spans = vec![(0, 0); h.names.len()];
        let mut counter = 0;
        h.dfs(0, &mut counter);
        h
    }

    /// Assigns `[entry, exit]` DFS numbers: a node's span contains exactly
    /// its descendants' spans.
    fn dfs(&mut self, node: usize, counter: &mut i64) {
        let entry = *counter;
        *counter += 1;
        let kids = self.children[node].clone();
        for c in kids {
            self.dfs(c, counter);
        }
        self.spans[node] = (entry, *counter);
        *counter += 1;
    }

    fn id_of(&self, name: &str) -> usize {
        self.names.iter().position(|&n| n == name).unwrap()
    }
}

fn main() {
    // A small type system: Object at the root.
    let h = Hierarchy::new(&[
        ("Object", "Number"),
        ("Object", "Collection"),
        ("Object", "Stream"),
        ("Number", "Integer"),
        ("Number", "Float"),
        ("Integer", "BigInt"),
        ("Integer", "SmallInt"),
        ("Collection", "List"),
        ("Collection", "Set"),
        ("List", "ArrayList"),
        ("List", "LinkedList"),
        ("Set", "HashSet"),
    ]);

    let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(DEFAULT_PAGE_SIZE)));
    let db = Arc::new(Database::create(pool).unwrap());
    let types = RiTree::create(db, "types").unwrap();
    for (id, &(lo, hi)) in h.spans.iter().enumerate() {
        types.insert(Interval::new(lo, hi).unwrap(), id as i64).unwrap();
    }
    println!("indexed {} types as DFS-number intervals", h.names.len());

    // All supertypes of SmallInt: every type whose span contains
    // SmallInt's entry number — one stabbing query.
    let small_int = h.id_of("SmallInt");
    let mut ancestors = types.stab(h.spans[small_int].0).unwrap();
    sort_ids(&mut ancestors); // plan order → DFS order
    let names: Vec<&str> = ancestors.iter().map(|&i| h.names[i as usize]).collect();
    println!("supertypes of SmallInt: {names:?}");
    assert_eq!(names, ["Object", "Number", "Integer", "SmallInt"]);

    // All subtypes of Collection: types whose span lies inside
    // Collection's span — containment via the Allen relations.
    let coll = h.id_of("Collection");
    let span = Interval::new(h.spans[coll].0, h.spans[coll].1).unwrap();
    let mut subs = Vec::new();
    for rel in [
        AllenRelation::During,
        AllenRelation::Starts,
        AllenRelation::Finishes,
        AllenRelation::Equals,
    ] {
        subs.extend(types.allen(rel, span).unwrap());
    }
    subs.sort_unstable();
    let names: Vec<&str> = subs.iter().map(|&i| h.names[i as usize]).collect();
    println!("subtypes of Collection: {names:?}");
    assert!(names.contains(&"ArrayList") && names.contains(&"HashSet"));
    assert!(!names.contains(&"Float"));

    // Is ArrayList compatible with (a subtype of) List?  Span containment.
    let (al, list) = (h.id_of("ArrayList"), h.id_of("List"));
    let compatible = h.spans[list].0 <= h.spans[al].0 && h.spans[al].1 <= h.spans[list].1;
    println!("ArrayList <: List ? {compatible}");
    assert!(compatible);
}
