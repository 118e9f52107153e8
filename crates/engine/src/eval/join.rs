//! Hash join / cross product over bags.

use super::hash_index::{hash_cells, HashIndex};
use super::{Bag, ExecStats};
use crate::Result;
use imp_storage::Row;

/// Join two bags. Empty keys = cross product. Multiplicities multiply
/// (`(t ◦ s)^{n·m}`, paper Fig. 4).
pub fn join(
    left: Bag,
    right: Bag,
    left_keys: &[usize],
    right_keys: &[usize],
    stats: &mut ExecStats,
) -> Result<Bag> {
    if left_keys.is_empty() {
        // Cross product.
        let mut out = Vec::new();
        for (l, n) in &left {
            for (r, m) in &right {
                out.push((l.concat(r), n * m));
            }
        }
        return Ok(out);
    }
    // Build on the smaller side.
    if right.len() <= left.len() {
        hash_join(left, right, left_keys, right_keys, false, stats)
    } else {
        hash_join(right, left, right_keys, left_keys, true, stats)
    }
}

/// Hash of `row`'s key cells, in place. SQL equi-join: a NULL key cell
/// joins with nothing (`None`).
fn key_hash(row: &Row, keys: &[usize]) -> Option<u64> {
    if keys.iter().any(|&k| row[k].is_null()) {
        return None;
    }
    Some(hash_cells(keys.iter().map(|&k| row[k].as_cell())))
}

fn hash_join(
    probe: Bag,
    build: Bag,
    probe_keys: &[usize],
    build_keys: &[usize],
    swapped: bool,
    stats: &mut ExecStats,
) -> Result<Bag> {
    // The build rows keep their keys; the index chains row numbers by key
    // hash. Linking back to front makes a chain run in build order.
    let mut index = HashIndex::with_capacity(build.len());
    for (id, (row, _)) in build.iter().enumerate().rev() {
        if let Some(hash) = key_hash(row, build_keys) {
            index.link(hash, id);
        }
    }
    let mut out = Vec::new();
    for (row, n) in probe {
        stats.join_probes += 1;
        let Some(hash) = key_hash(&row, probe_keys) else {
            continue;
        };
        for id in index.chain(hash) {
            let (b, m) = &build[id];
            if (probe_keys.iter().zip(build_keys)).all(|(&p, &k)| row[p] == b[k]) {
                // Preserve (left ◦ right) column order regardless of which
                // side we built on.
                let joined = if swapped {
                    b.concat(&row)
                } else {
                    row.concat(b)
                };
                out.push((joined, n * m));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_storage::{row, Value};

    #[test]
    fn equi_join_matches_fig5() {
        // ΔR = {(5,8)}, S = {(6,9),(7,8)}; join on b = d keeps (5,8,7,8).
        let l: Bag = vec![(row![5, 8], 1)];
        let r: Bag = vec![(row![6, 9], 1), (row![7, 8], 1)];
        let mut stats = ExecStats::default();
        let out = join(l, r, &[1], &[1], &mut stats).unwrap();
        assert_eq!(out, vec![(row![5, 8, 7, 8], 1)]);
    }

    #[test]
    fn multiplicities_multiply() {
        let l: Bag = vec![(row![1], 2)];
        let r: Bag = vec![(row![1], 3)];
        let mut stats = ExecStats::default();
        let out = join(l, r, &[0], &[0], &mut stats).unwrap();
        assert_eq!(out, vec![(row![1, 1], 6)]);
    }

    #[test]
    fn column_order_stable_when_build_side_swapped() {
        // Left bigger than right and vice versa must both produce l ◦ r.
        let l: Bag = vec![(row![1, 10], 1), (row![2, 20], 1), (row![3, 30], 1)];
        let r: Bag = vec![(row![10, "x"], 1)];
        let mut stats = ExecStats::default();
        let a = join(l.clone(), r.clone(), &[1], &[0], &mut stats).unwrap();
        assert_eq!(a, vec![(row![1, 10, 10, "x"], 1)]);
        // Now right bigger: builds on left instead.
        let r2: Bag = vec![
            (row![10, "x"], 1),
            (row![99, "y"], 1),
            (row![98, "z"], 1),
            (row![97, "w"], 1),
        ];
        let b = join(l, r2, &[1], &[0], &mut stats).unwrap();
        assert_eq!(b, vec![(row![1, 10, 10, "x"], 1)]);
    }

    #[test]
    fn nulls_never_join() {
        let l: Bag = vec![(Row::new(vec![Value::Null]), 1)];
        let r: Bag = vec![(Row::new(vec![Value::Null]), 1)];
        let mut stats = ExecStats::default();
        let out = join(l, r, &[0], &[0], &mut stats).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn multi_column_keys_match_cell_by_cell_in_build_order() {
        // Int and Float key cells that compare equal join; a partial match
        // does not; equal build keys come out in build order.
        let l: Bag = vec![
            (row![1, 2.0, "l"], 1),
            (row![1, 3, "l"], 1),
            (row![Value::Null, 2, "l"], 1),
        ];
        let r: Bag = vec![
            (row![1.0, 2, "first"], 1),
            (row![1, 9, "no"], 1),
            (row![1, 2, "second"], 1),
        ];
        let mut stats = ExecStats::default();
        let out = join(l, r, &[0, 1], &[0, 1], &mut stats).unwrap();
        assert_eq!(
            out,
            vec![
                (row![1, 2.0, "l", 1.0, 2, "first"], 1),
                (row![1, 2.0, "l", 1, 2, "second"], 1),
            ]
        );
        assert_eq!(stats.join_probes, 3);
    }

    #[test]
    fn cross_product() {
        let l: Bag = vec![(row![1], 1), (row![2], 1)];
        let r: Bag = vec![(row!["a"], 2)];
        let mut stats = ExecStats::default();
        let out = join(l, r, &[], &[], &mut stats).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].1, 2);
    }
}
