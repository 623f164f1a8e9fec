//! Greedy benefit-driven dictionary construction.
//!
//! §4: "The compressor maintains a heap of candidate instructions,
//! sorted by B. After each pass over the input program, the compressor
//! removes the K best candidates from the heap and adds them to the
//! dictionary. … The compressor ceases to hunt for useful patterns
//! after a pass that doesn't yield at least K patterns for which B is
//! positive." The candidate generation is compressor-specific; the
//! selection discipline lives here.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scored candidate: `benefit = size_reduction - table_cost`
/// (`B = P − W` in the paper's notation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Benefit {
    /// Program-size reduction in bytes, *including* the dictionary-entry
    /// transmission cost (`P`).
    pub size_reduction: i64,
    /// Decompressor working-set cost in bytes (`W`).
    pub table_cost: i64,
}

impl Benefit {
    /// `B = P − W`.
    pub fn value(self) -> i64 {
        self.size_reduction - self.table_cost
    }

    /// The abundant-memory variant the paper mentions: "of course, in
    /// abundant memory situations we can set B equal to P".
    pub fn value_ignoring_memory(self) -> i64 {
        self.size_reduction
    }
}

/// The memory regime the benefit metric runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryRegime {
    /// `B = P − W` (the paper's default).
    #[default]
    Constrained,
    /// `B = P` (abundant memory).
    Abundant,
}

impl MemoryRegime {
    /// Scores a benefit under this regime.
    pub fn score(self, b: Benefit) -> i64 {
        match self {
            MemoryRegime::Constrained => b.value(),
            MemoryRegime::Abundant => b.value_ignoring_memory(),
        }
    }
}

/// The `k` best positive-benefit candidates offered so far: §4's "heap
/// of candidate instructions, sorted by B", kept at size `k`.
///
/// Candidates rank by score under the regime, higher first; equal
/// scores rank by the item, smaller first. The ranking is total, so what
/// is kept does not depend on the order of the offers. A caller that can
/// bound the scores of candidates it has not built yet asks
/// [`Self::admits`] first and stops once the bound cannot get in.
#[derive(Debug)]
pub struct TopK<T> {
    k: usize,
    regime: MemoryRegime,
    /// The kept candidates, the worst on top.
    heap: BinaryHeap<Ranked<T>>,
}

#[derive(Debug)]
struct Ranked<T> {
    score: i64,
    item: T,
    benefit: Benefit,
}

impl<T: Ord> Ord for Ranked<T> {
    /// Greater is worse: a lower score, or an equal score and a larger
    /// item.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .cmp(&self.score)
            .then_with(|| self.item.cmp(&other.item))
    }
}

impl<T: Ord> PartialOrd for Ranked<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord> PartialEq for Ranked<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T: Ord> Eq for Ranked<T> {}

impl<T: Ord> TopK<T> {
    /// An empty selection of at most `k` candidates scored under `regime`.
    pub fn new(k: usize, regime: MemoryRegime) -> TopK<T> {
        TopK {
            k,
            regime,
            heap: BinaryHeap::new(),
        }
    }

    /// Whether a candidate scoring `score` could be kept: it is positive,
    /// and fewer than `k` are kept or it at least ties the worst kept
    /// score (a tie goes to the smaller item).
    pub fn admits(&self, score: i64) -> bool {
        score > 0
            && (self.heap.len() < self.k || self.heap.peek().is_some_and(|w| score >= w.score))
    }

    /// Offers one candidate; it is kept if it ranks among the best `k`
    /// so far with `B > 0`.
    pub fn offer(&mut self, item: T, benefit: Benefit) {
        let score = self.regime.score(benefit);
        if !self.admits(score) {
            return;
        }
        let ranked = Ranked {
            score,
            item,
            benefit,
        };
        if self.heap.len() < self.k {
            self.heap.push(ranked);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if ranked < *worst {
                *worst = ranked;
            }
        }
    }

    /// The kept candidates, best first.
    pub fn into_best_first(self) -> Vec<(T, Benefit)> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|r| (r.item, r.benefit))
            .collect()
    }
}

/// Pass-loop bookkeeping: the construction stops "after a pass that
/// doesn't yield at least K patterns for which B is positive".
#[derive(Debug, Clone, Copy)]
pub struct PassPolicy {
    /// Candidates adopted per pass.
    pub k: usize,
    /// Hard cap on passes (a safety net the paper does not need).
    pub max_passes: usize,
    /// Memory regime for scoring.
    pub regime: MemoryRegime,
}

impl Default for PassPolicy {
    fn default() -> Self {
        // K=20 is the value the paper's results table uses.
        Self {
            k: 20,
            max_passes: 64,
            regime: MemoryRegime::Constrained,
        }
    }
}

impl PassPolicy {
    /// Whether another pass should run after one that adopted `adopted`
    /// candidates.
    pub fn continue_after(&self, adopted: usize, passes_done: usize) -> bool {
        adopted >= self.k && passes_done < self.max_passes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Offers every candidate in order and returns the kept ones, best
    /// first.
    fn select<T: Ord>(
        candidates: Vec<(T, Benefit)>,
        k: usize,
        regime: MemoryRegime,
    ) -> Vec<(T, Benefit)> {
        let mut top = TopK::new(k, regime);
        for (item, benefit) in candidates {
            top.offer(item, benefit);
        }
        top.into_best_first()
    }

    #[test]
    fn benefit_matches_paper_example() {
        // §4: [enter sp,*,*] saves 1 byte, costs 2 bytes of dictionary
        // entry, and W = 25 (mean of 17 Pentium + 28 PowerPC, rounded
        // as the paper rounds): B = P − W = −26, so it is not adopted.
        let b = Benefit {
            size_reduction: 1 - 2,
            table_cost: 25,
        };
        assert_eq!(b.value(), -26);
        assert!(select(vec![((), b)], 20, MemoryRegime::Constrained).is_empty());
        // In abundant memory, still negative (P = −1).
        assert!(select(vec![((), b)], 20, MemoryRegime::Abundant).is_empty());
    }

    #[test]
    fn top_k_orders_by_benefit() {
        let cands = vec![
            (
                "a",
                Benefit {
                    size_reduction: 10,
                    table_cost: 2,
                },
            ),
            (
                "b",
                Benefit {
                    size_reduction: 50,
                    table_cost: 20,
                },
            ),
            (
                "c",
                Benefit {
                    size_reduction: 5,
                    table_cost: 10,
                },
            ), // negative
            (
                "d",
                Benefit {
                    size_reduction: 9,
                    table_cost: 0,
                },
            ),
        ];
        let picked = select(cands, 2, MemoryRegime::Constrained);
        let names: Vec<&str> = picked.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["b", "d"]);
    }

    #[test]
    fn abundant_memory_ignores_table_cost() {
        let cands = vec![
            (
                "heavy",
                Benefit {
                    size_reduction: 30,
                    table_cost: 100,
                },
            ),
            (
                "light",
                Benefit {
                    size_reduction: 10,
                    table_cost: 0,
                },
            ),
        ];
        let constrained = select(cands.clone(), 2, MemoryRegime::Constrained);
        assert_eq!(constrained.len(), 1);
        assert_eq!(constrained[0].0, "light");
        let abundant = select(cands, 2, MemoryRegime::Abundant);
        assert_eq!(abundant[0].0, "heavy");
        assert_eq!(abundant.len(), 2);
    }

    #[test]
    fn ties_break_deterministically() {
        let cands = vec![
            (
                "first",
                Benefit {
                    size_reduction: 5,
                    table_cost: 0,
                },
            ),
            (
                "second",
                Benefit {
                    size_reduction: 5,
                    table_cost: 0,
                },
            ),
        ];
        let picked = select(cands, 1, MemoryRegime::Constrained);
        assert_eq!(picked[0].0, "first");
    }

    #[test]
    fn selection_does_not_depend_on_offer_order() {
        let b = |size_reduction| Benefit {
            size_reduction,
            table_cost: 0,
        };
        let cands = vec![
            (3, b(5)),
            (1, b(7)),
            (4, b(5)),
            (2, b(5)),
            (5, b(-1)),
            (0, b(2)),
        ];
        let forward = select(cands.clone(), 3, MemoryRegime::Constrained);
        let names: Vec<i32> = forward.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec![1, 2, 3]);
        let mut reversed = cands;
        reversed.reverse();
        assert_eq!(select(reversed, 3, MemoryRegime::Constrained), forward);
    }

    #[test]
    fn admits_what_could_still_be_kept() {
        let b = |size_reduction| Benefit {
            size_reduction,
            table_cost: 0,
        };
        let mut top = TopK::new(2, MemoryRegime::Constrained);
        assert!(!top.admits(0), "B must be positive");
        assert!(top.admits(1), "room left");
        top.offer("m", b(4));
        top.offer("n", b(6));
        assert!(!top.admits(3));
        assert!(top.admits(4), "a tie can still win on the item");
        top.offer("z", b(4));
        top.offer("a", b(4));
        let names: Vec<&str> = top.into_best_first().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["n", "a"]);
        assert!(!TopK::<()>::new(0, MemoryRegime::Abundant).admits(9));
    }

    #[test]
    fn pass_policy_stops_on_thin_pass() {
        let p = PassPolicy {
            k: 20,
            max_passes: 10,
            regime: MemoryRegime::Constrained,
        };
        assert!(p.continue_after(20, 1));
        assert!(p.continue_after(25, 1));
        assert!(!p.continue_after(19, 1));
        assert!(!p.continue_after(20, 10));
    }
}
