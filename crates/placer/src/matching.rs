//! In-server producer↔consumer stable matching (paper §4).
//!
//! After AQUA-PLACER assigns models to servers, "within each server, it
//! matches producers to consumers using simple stable matching", and
//! "matches every consumer GPU with exactly one producer GPU that has
//! sufficient free memory to meet the consumer's memory deficit. Mapping a
//! single producer to multiple consumers is feasible but AQUA-PLACER does
//! not allow that by design" (to avoid splitting the producer's NVLink
//! bandwidth).
//!
//! Preferences on both sides are by *fit*: a consumer prefers the smallest
//! producer that covers its deficit (leaving big producers for big
//! consumers); a producer prefers the largest consumer it can cover. We run
//! consumer-proposing Gale–Shapley over those preference lists.

use crate::instance::{ModelSpec, Role};

/// One producer↔consumer pair produced by [`stable_match`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchedPair {
    /// Index (into the input slice) of the consumer model.
    pub consumer: usize,
    /// Index (into the input slice) of the producer model.
    pub producer: usize,
}

/// Matches consumers to producers within one server, one-to-one.
///
/// Only pairs where the producer's excess covers the consumer's deficit are
/// admissible. Returns the stable matching under fit-based preferences;
/// consumers that no producer can cover remain unmatched (they fall back to
/// DRAM offloading at runtime).
///
/// # Example
///
/// ```
/// use aqua_placer::instance::ModelSpec;
/// use aqua_placer::matching::stable_match;
///
/// let models = vec![
///     ModelSpec::producer("sd", 50 << 30),
///     ModelSpec::consumer("opt", 20 << 30),
///     ModelSpec::producer("audio", 25 << 30),
///     ModelSpec::consumer("llama", 40 << 30),
/// ];
/// let pairs = stable_match(&models);
/// assert_eq!(pairs.len(), 2);
/// // The big consumer (llama, 40 GB) takes the only producer that covers
/// // it (sd, 50 GB); opt pairs with the audio producer.
/// assert!(pairs.iter().any(|p| p.consumer == 3 && p.producer == 0));
/// assert!(pairs.iter().any(|p| p.consumer == 1 && p.producer == 2));
/// ```
pub fn stable_match(models: &[ModelSpec]) -> Vec<MatchedPair> {
    let consumers: Vec<usize> = (0..models.len())
        .filter(|&m| models[m].role() == Role::Consumer)
        .collect();
    let producers: Vec<usize> = (0..models.len())
        .filter(|&m| models[m].role() == Role::Producer)
        .collect();

    // Consumer c's preference list: admissible producers, smallest first.
    let prefs: Vec<Vec<usize>> = consumers
        .iter()
        .map(|&c| {
            let deficit = -models[c].mem_bytes;
            let mut admissible: Vec<usize> = (0..producers.len())
                .filter(|&pi| models[producers[pi]].mem_bytes >= deficit)
                .collect();
            admissible.sort_by_key(|&pi| (models[producers[pi]].mem_bytes, pi));
            admissible
        })
        .collect();

    // Producer ranking of consumers: larger deficit preferred.
    let producer_rank = |pi: usize, ci: usize| -> i64 {
        let _ = pi;
        models[consumers[ci]].mem_bytes // more negative = bigger deficit = better
    };

    let mut next_proposal = vec![0usize; consumers.len()];
    let mut engaged_to: Vec<Option<usize>> = vec![None; producers.len()];
    let mut free: Vec<usize> = (0..consumers.len()).collect();
    // Propose larger consumers first for determinism (does not affect the
    // stable outcome with strict preferences).
    free.sort_by_key(|&ci| models[consumers[ci]].mem_bytes);

    while let Some(ci) = free.pop() {
        let list = &prefs[ci];
        let mut proposer = Some(ci);
        while let Some(c) = proposer {
            if next_proposal[c] >= prefs[c].len() {
                break; // exhausted: stays unmatched
            }
            let pi = prefs[c][next_proposal[c]];
            next_proposal[c] += 1;
            match engaged_to[pi] {
                None => {
                    engaged_to[pi] = Some(c);
                    proposer = None;
                }
                Some(current) => {
                    if producer_rank(pi, c) < producer_rank(pi, current) {
                        engaged_to[pi] = Some(c);
                        proposer = Some(current);
                    } else {
                        proposer = Some(c);
                    }
                }
            }
        }
        let _ = list;
    }

    let mut pairs: Vec<MatchedPair> = engaged_to
        .iter()
        .enumerate()
        .filter_map(|(pi, c)| {
            c.map(|ci| MatchedPair {
                consumer: consumers[ci],
                producer: producers[pi],
            })
        })
        .collect();
    pairs.sort_by_key(|p| p.consumer);
    pairs
}

/// Checks that a matching is stable: no consumer–producer pair would both
/// rather be matched to each other than to their assigned partners.
#[cfg(test)]
fn is_stable(models: &[ModelSpec], pairs: &[MatchedPair]) -> bool {
    let partner_of_consumer = |c: usize| pairs.iter().find(|p| p.consumer == c).map(|p| p.producer);
    let partner_of_producer = |p: usize| pairs.iter().find(|q| q.producer == p).map(|q| q.consumer);
    for c in 0..models.len() {
        if models[c].role() != Role::Consumer {
            continue;
        }
        let deficit = -models[c].mem_bytes;
        for p in 0..models.len() {
            if models[p].role() != Role::Producer || models[p].mem_bytes < deficit {
                continue;
            }
            // Would c prefer p over its current partner?
            let c_prefers = match partner_of_consumer(c) {
                None => true,
                Some(cur) => models[p].mem_bytes < models[cur].mem_bytes,
            };
            // Would p prefer c over its current partner?
            let p_prefers = match partner_of_producer(p) {
                None => true,
                Some(cur) => models[c].mem_bytes < models[cur].mem_bytes,
            };
            if c_prefers && p_prefers {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1 << 30;

    #[test]
    fn empty_input_empty_matching() {
        assert!(stable_match(&[]).is_empty());
        assert!(is_stable(&[], &[]));
    }

    #[test]
    fn one_to_one_never_shares_a_producer() {
        let models = vec![
            ModelSpec::producer("p", 60 * GB),
            ModelSpec::consumer("c0", 10 * GB),
            ModelSpec::consumer("c1", 10 * GB),
        ];
        let pairs = stable_match(&models);
        assert_eq!(pairs.len(), 1, "a producer backs exactly one consumer");
        assert!(is_stable(&models, &pairs));
    }

    #[test]
    fn insufficient_producers_leave_consumers_unmatched() {
        let models = vec![
            ModelSpec::producer("small", 5 * GB),
            ModelSpec::consumer("big", 40 * GB),
        ];
        let pairs = stable_match(&models);
        assert!(pairs.is_empty(), "5 GB cannot cover a 40 GB deficit");
    }

    #[test]
    fn fit_based_pairing() {
        let models = vec![
            ModelSpec::producer("p-big", 50 * GB),
            ModelSpec::producer("p-small", 25 * GB),
            ModelSpec::consumer("c-big", 40 * GB),
            ModelSpec::consumer("c-small", 20 * GB),
        ];
        let pairs = stable_match(&models);
        assert_eq!(pairs.len(), 2);
        let find = |c: usize| pairs.iter().find(|p| p.consumer == c).unwrap().producer;
        assert_eq!(find(2), 0, "big consumer needs the big producer");
        assert_eq!(find(3), 1, "small consumer takes the small producer");
        assert!(is_stable(&models, &pairs));
    }

    aqua_sim::check! {
        /// Matchings are always one-to-one, admissible and stable.
        #[test]
        fn matching_invariants(
            prods in aqua_sim::check::vec(1u64..80, 0..8),
            cons in aqua_sim::check::vec(1u64..80, 0..8),
        ) {
            let mut models = Vec::new();
            for (i, p) in prods.iter().enumerate() {
                models.push(ModelSpec::producer(format!("p{i}"), p * GB));
            }
            for (i, c) in cons.iter().enumerate() {
                models.push(ModelSpec::consumer(format!("c{i}"), c * GB));
            }
            let pairs = stable_match(&models);
            // One-to-one.
            let mut ps: Vec<usize> = pairs.iter().map(|p| p.producer).collect();
            let mut cs: Vec<usize> = pairs.iter().map(|p| p.consumer).collect();
            ps.sort_unstable(); ps.dedup();
            cs.sort_unstable(); cs.dedup();
            assert_eq!(ps.len(), pairs.len());
            assert_eq!(cs.len(), pairs.len());
            // Admissible: producer covers the deficit.
            for p in &pairs {
                assert!(models[p.producer].mem_bytes >= -models[p.consumer].mem_bytes);
            }
            // Stable.
            assert!(is_stable(&models, &pairs));
        }
    }
}
