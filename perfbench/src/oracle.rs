//! The correctness oracle: each input row's expected team answer,
//! computed locally before the run.
//!
//! The expected answer is the runtime's rule replayed by hand: every
//! expert's `teamnet_core::runtime::local_results` on the row, then the
//! lowest entropy wins, ties going to the lowest node id (the master,
//! node 0, seeds the running argmin and later nodes replace it only on a
//! strictly lower entropy). A reply matches when label, winning expert
//! and entropy bits are all equal.

use teamnet_core::runtime::local_results;
use teamnet_core::TeamPrediction;
use teamnet_nn::Sequential;
use teamnet_tensor::Tensor;

/// Rows per reference forward: bounds the reference's peak memory.
const CHUNK: usize = 64;

/// Expected answers for a pool of input rows.
#[derive(Debug, Clone)]
pub struct Oracle {
    refs: Vec<TeamPrediction>,
}

impl Oracle {
    /// Replays the team rule over `pool` (`[rows, features...]`) with
    /// `experts` in node order.
    pub fn new(experts: &mut [Sequential], pool: &Tensor) -> Oracle {
        let rows = pool.dims().first().copied().unwrap_or(0);
        let mut refs: Vec<Option<TeamPrediction>> = vec![None; rows];
        for start in (0..rows).step_by(CHUNK) {
            let idx: Vec<usize> = (start..rows.min(start + CHUNK)).collect();
            let chunk = pool.select_rows(&idx);
            for (node, expert) in experts.iter_mut().enumerate() {
                for (&row, (label, entropy)) in idx.iter().zip(local_results(expert, &chunk)) {
                    let best = &mut refs[row];
                    if best.as_ref().is_none_or(|b| entropy < b.entropy) {
                        *best = Some(TeamPrediction {
                            label,
                            expert: node,
                            entropy,
                        });
                    }
                }
            }
        }
        Oracle {
            refs: refs.into_iter().flatten().collect(),
        }
    }

    /// Whether `got` is exactly the expected answer for pool rows `rows`:
    /// one prediction per row, each equal in label, expert and entropy
    /// bits. A short, long or mismatched reply fails.
    pub fn matches(&self, rows: &[usize], got: &[TeamPrediction]) -> bool {
        rows.len() == got.len()
            && rows.iter().zip(got).all(|(&r, g)| {
                self.refs.get(r).is_some_and(|e| {
                    e.label == g.label
                        && e.expert == g.expert
                        && e.entropy.to_bits() == g.entropy.to_bits()
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use teamnet_core::build_expert;
    use teamnet_nn::ModelSpec;

    fn team(seed: u64) -> Vec<Sequential> {
        (0..3)
            .map(|i| build_expert(&ModelSpec::mlp(2, 16), seed + i))
            .collect()
    }

    fn pool() -> Tensor {
        let mut rng = StdRng::seed_from_u64(5);
        teamnet_data::synth_digits(40, &mut rng).images().clone()
    }

    fn team_answer(experts: &mut [Sequential], pool: &Tensor) -> Vec<TeamPrediction> {
        let locals: Vec<Vec<(usize, f32)>> =
            experts.iter_mut().map(|e| local_results(e, pool)).collect();
        (0..locals[0].len())
            .map(|r| {
                let mut best = TeamPrediction {
                    label: locals[0][r].0,
                    expert: 0,
                    entropy: locals[0][r].1,
                };
                for (node, l) in locals.iter().enumerate().skip(1) {
                    if l[r].1 < best.entropy {
                        best = TeamPrediction {
                            label: l[r].0,
                            expert: node,
                            entropy: l[r].1,
                        };
                    }
                }
                best
            })
            .collect()
    }

    #[test]
    fn accepts_the_team_answer_and_rejects_short_or_wrong_replies() {
        let pool = pool();
        let oracle = Oracle::new(&mut team(10), &pool);
        let got = team_answer(&mut team(10), &pool);
        let rows: Vec<usize> = (0..40).collect();
        assert!(oracle.matches(&rows, &got));
        assert!(!oracle.matches(&rows, &got[..39]), "short reply");
        let mut wrong = got.clone();
        wrong[7].entropy = f32::from_bits(wrong[7].entropy.to_bits() ^ 1);
        assert!(!oracle.matches(&rows, &wrong), "one entropy bit off");
    }

    #[test]
    fn negative_control_wrong_expert_seed_fails_the_check() {
        let pool = pool();
        let wrong = Oracle::new(&mut team(11), &pool);
        let got = team_answer(&mut team(10), &pool);
        let rows: Vec<usize> = (0..40).collect();
        assert!(!wrong.matches(&rows, &got));
    }
}
