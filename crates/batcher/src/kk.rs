//! Karmarkar–Karp k-way number partitioning.
//!
//! After the DP produces micro-batches, hybrid data+pipeline training needs
//! them distributed across `|D|` model replicas so the maximum total
//! execution time per replica is minimized (§4). That is k-way number
//! partitioning; the paper approximates it with the Karmarkar–Karp
//! differencing method, implemented here in its k-way generalization.

use dynapipe_model::Micros;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A partial solution: k parts, each its sum and its items, kept sorted by
/// descending sum.
#[derive(Debug, Clone)]
struct Tuple {
    parts: Vec<(Micros, Vec<usize>)>,
}

impl Tuple {
    fn spread(&self) -> Micros {
        self.parts[0].0 - self.parts[self.parts.len() - 1].0
    }

    /// Merge `other` into `self`: pair `self`'s largest sums with
    /// `other`'s smallest, each merged part `self`'s items then `other`'s,
    /// then re-sort by descending sum (stably, so equal sums keep their
    /// pairing order). Moves `other`'s items; allocates only when a part
    /// outgrows its capacity.
    fn merge(&mut self, mut other: Tuple) {
        for (mine, theirs) in self.parts.iter_mut().zip(other.parts.iter_mut().rev()) {
            mine.0 += theirs.0;
            mine.1.append(&mut theirs.1);
        }
        self.parts.sort_by(|x, y| y.0.total_cmp(&x.0));
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        self.spread() == other.spread()
    }
}
impl Eq for Tuple {}
impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Tuple {
    fn cmp(&self, other: &Self) -> Ordering {
        self.spread().total_cmp(&other.spread())
    }
}

/// Partition items with the given `weights` into `k` parts, approximately
/// minimizing the maximum part sum. Returns the item indices of each part.
///
/// Uses k-way Karmarkar–Karp differencing: maintain a max-heap of partial
/// solutions keyed by spread (max − min part sum); repeatedly merge the two
/// largest-spread solutions by pairing the largest sums of one with the
/// smallest of the other.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn karmarkar_karp(weights: &[Micros], k: usize) -> Vec<Vec<usize>> {
    assert!(k > 0, "cannot partition into zero parts");
    if weights.is_empty() {
        return vec![Vec::new(); k];
    }
    if k == 1 {
        return vec![(0..weights.len()).collect()];
    }
    let mut heap: BinaryHeap<Tuple> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let mut parts = vec![(0.0, Vec::new()); k];
            parts[0] = (w, vec![i]);
            Tuple { parts }
        })
        .collect();
    while heap.len() > 1 {
        let mut a = heap.pop().expect("len > 1");
        a.merge(heap.pop().expect("len > 1"));
        heap.push(a);
    }
    let last = heap.pop().expect("one tuple remains");
    last.parts.into_iter().map(|(_, items)| items).collect()
}

/// Maximum part sum of a partition — the quantity KK minimizes.
// lint:allow(pub-uncalled): oracle for tests/properties.rs `kk_partition_is_exact_cover_and_balanced`
pub fn max_part_sum(weights: &[Micros], parts: &[Vec<usize>]) -> Micros {
    parts
        .iter()
        .map(|p| p.iter().map(|&i| weights[i]).sum::<Micros>())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The merge as it was first written, kept as the oracle of
    /// [`karmarkar_karp`]: each merge builds fresh sums and fresh parts,
    /// cloning `a`'s items, then re-sorts through an index order.
    fn karmarkar_karp_reference(weights: &[Micros], k: usize) -> Vec<Vec<usize>> {
        #[derive(Debug, Clone)]
        struct Tuple {
            sums: Vec<Micros>,
            parts: Vec<Vec<usize>>,
        }
        impl Tuple {
            fn spread(&self) -> Micros {
                self.sums[0] - self.sums[self.sums.len() - 1]
            }
        }
        impl PartialEq for Tuple {
            fn eq(&self, other: &Self) -> bool {
                self.spread() == other.spread()
            }
        }
        impl Eq for Tuple {}
        impl PartialOrd for Tuple {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Tuple {
            fn cmp(&self, other: &Self) -> Ordering {
                self.spread().total_cmp(&other.spread())
            }
        }
        assert!(k > 0, "cannot partition into zero parts");
        if weights.is_empty() {
            return vec![Vec::new(); k];
        }
        if k == 1 {
            return vec![(0..weights.len()).collect()];
        }
        let mut heap: BinaryHeap<Tuple> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let mut sums = vec![0.0; k];
                let mut parts = vec![Vec::new(); k];
                sums[0] = w;
                parts[0].push(i);
                Tuple { sums, parts }
            })
            .collect();
        while heap.len() > 1 {
            let a = heap.pop().expect("len > 1");
            let b = heap.pop().expect("len > 1");
            let mut sums = vec![0.0; k];
            let mut parts: Vec<Vec<usize>> = vec![Vec::new(); k];
            for i in 0..k {
                let j = k - 1 - i;
                sums[i] = a.sums[i] + b.sums[j];
                let mut items = a.parts[i].clone();
                items.extend_from_slice(&b.parts[j]);
                parts[i] = items;
            }
            let mut order: Vec<usize> = (0..k).collect();
            order.sort_by(|&x, &y| sums[y].total_cmp(&sums[x]));
            let sums = order.iter().map(|&i| sums[i]).collect();
            let parts = order
                .iter()
                .map(|&i| std::mem::take(&mut parts[i]))
                .collect();
            heap.push(Tuple { sums, parts });
        }
        heap.pop().expect("one tuple remains").parts
    }

    #[test]
    fn merging_in_place_matches_the_reference_groups() {
        // Random weights drawn from a few values, so spreads and part sums
        // tie often: ties are where a changed heap or sort order would
        // show. Every part's items, in order, must match.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        for k in [1, 2, 4, 32] {
            for len in [0, 1, 2, 3, 5, 8, 31, 33, 64, 200] {
                for distinct in [1, 3, 7, 1000] {
                    let w: Vec<Micros> = (0..len)
                        .map(|_| (1 + next(distinct)) as f64 * 2.5)
                        .collect();
                    assert_eq!(
                        karmarkar_karp(&w, k),
                        karmarkar_karp_reference(&w, k),
                        "k={k} weights {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn partition_is_exact_cover() {
        let w = [10.0, 7.0, 5.0, 4.0, 3.0, 1.0];
        let parts = karmarkar_karp(&w, 3);
        assert_eq!(parts.len(), 3);
        let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn classic_two_way_instance() {
        // {8,7,6,5,4}: the differencing method yields a 16/14 split (KK is
        // an approximation; the optimum is 15/15 — §4 uses it precisely
        // because it's a fast, near-optimal heuristic).
        let w = [8.0, 7.0, 6.0, 5.0, 4.0];
        let parts = karmarkar_karp(&w, 2);
        let max = max_part_sum(&w, &parts);
        assert!(
            max <= 16.0,
            "KK should do no worse than its known 16/14 split"
        );
        assert!(max >= 15.0, "max part cannot beat the perfect split");
    }

    #[test]
    fn balance_not_worse_than_naive_round_robin() {
        let w: Vec<f64> = (0..40).map(|i| 10.0 + ((i * 7919) % 97) as f64).collect();
        for k in [2usize, 4, 8] {
            let kk_parts = karmarkar_karp(&w, k);
            let kk = max_part_sum(&w, &kk_parts);
            let mut rr_parts = vec![Vec::new(); k];
            for i in 0..w.len() {
                rr_parts[i % k].push(i);
            }
            let rr = max_part_sum(&w, &rr_parts);
            assert!(kk <= rr, "k={k}: kk {kk} worse than round-robin {rr}");
            // And within a sensible bound of the trivial lower bound.
            let lower =
                (w.iter().sum::<f64>() / k as f64).max(w.iter().copied().fold(0.0, f64::max));
            assert!(kk <= lower * 1.25, "k={k}: kk {kk} vs lower bound {lower}");
        }
    }

    #[test]
    fn fewer_items_than_parts() {
        let w = [5.0, 3.0];
        let parts = karmarkar_karp(&w, 4);
        assert_eq!(parts.len(), 4);
        let nonempty = parts.iter().filter(|p| !p.is_empty()).count();
        assert_eq!(nonempty, 2);
        assert_eq!(max_part_sum(&w, &parts), 5.0);
    }

    #[test]
    fn empty_and_k1() {
        assert_eq!(karmarkar_karp(&[], 3), vec![Vec::<usize>::new(); 3]);
        let w = [1.0, 2.0];
        let parts = karmarkar_karp(&w, 1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 2);
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn zero_parts_rejected() {
        let _ = karmarkar_karp(&[1.0], 0);
    }

    #[test]
    fn identical_weights_balance_perfectly() {
        let w = vec![3.0; 16];
        let parts = karmarkar_karp(&w, 4);
        for p in &parts {
            assert_eq!(p.len(), 4);
        }
    }
}
