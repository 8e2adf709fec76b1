//! Closed-loop multi-turn chatbot workload (Figure 13 / §8).
//!
//! "We simulate 25 users of the chatbot and issue one prompt per user, wait
//! for the response from the LLM. After the response from the LLM, we issue
//! the prompt again for every user in a poisson distribution. We ran this
//! experiment for multiple turns."
//!
//! The workload is closed-loop: turn `k+1`'s arrival times depend on turn
//! `k`'s completion times, so the harness alternates between running the
//! engine and asking [`ChatWorkload::next_turn`] for the next wave.

use crate::sampling::Sampler;
use aqua_engines::request::InferenceRequest;
use aqua_metrics::requests::RequestRecord;
use aqua_sim::time::{SimDuration, SimTime};

/// Multi-turn chat workload state.
///
/// Conversation history accumulates: each turn re-feeds the full history as
/// the prompt (how chat front-ends drive LLM APIs), so contexts grow turn
/// over turn — the reason the paper's chat workload stresses GPU memory.
#[derive(Debug, Clone)]
pub struct ChatWorkload {
    users: usize,
    turns: usize,
    think_rate: f64,
    sampler: Sampler,
    next_id: u64,
    issued_turns: usize,
    history_tokens: Vec<u64>,
}

impl ChatWorkload {
    /// `users` simulated users, `turns` turns each, with exponential think
    /// time at `think_rate` (events/s) after each response.
    ///
    /// # Panics
    ///
    /// Panics if `users == 0`, `turns == 0` or `think_rate <= 0`.
    pub fn new(users: usize, turns: usize, think_rate: f64, seed: u64) -> Self {
        assert!(users > 0 && turns > 0, "need users and turns");
        assert!(think_rate > 0.0, "think rate must be positive");
        ChatWorkload {
            users,
            turns,
            think_rate,
            sampler: Sampler::new(seed),
            next_id: 0,
            issued_turns: 0,
            history_tokens: vec![0; users],
        }
    }

    /// Total turns configured.
    pub fn turns(&self) -> usize {
        self.turns
    }

    /// Turns issued so far.
    #[cfg(test)]
    fn issued_turns(&self) -> usize {
        self.issued_turns
    }

    /// The first turn: every user sends a prompt shortly after time zero.
    pub fn first_turn(&mut self) -> Vec<(SimTime, InferenceRequest)> {
        assert_eq!(self.issued_turns, 0, "first_turn called twice");
        self.issued_turns = 1;
        (0..self.users)
            .map(|user| {
                let at = SimTime::ZERO
                    + SimDuration::from_secs_f64(self.sampler.exponential(self.think_rate));
                (at, self.fresh_request(user))
            })
            .collect()
    }

    /// The next turn, given the previous turn's completion records: each
    /// user re-prompts one think-time after their response arrived. Returns
    /// `None` when all turns are issued.
    pub fn next_turn(
        &mut self,
        previous: &[RequestRecord],
    ) -> Option<Vec<(SimTime, InferenceRequest)>> {
        if self.issued_turns >= self.turns {
            return None;
        }
        self.issued_turns += 1;
        Some(
            previous
                .iter()
                .enumerate()
                .map(|(user, r)| {
                    // The response joins the user's history.
                    self.history_tokens[user % self.users] += r.output_tokens;
                    let think =
                        SimDuration::from_secs_f64(self.sampler.exponential(self.think_rate));
                    (r.completion + think, self.fresh_request(user % self.users))
                })
                .collect(),
        )
    }

    fn fresh_request(&mut self, user: usize) -> InferenceRequest {
        let id = self.next_id;
        self.next_id += 1;
        let new_text = self.sampler.token_count(5.2, 0.8, 32, 1024);
        self.history_tokens[user] += new_text;
        let output = self.sampler.token_count(4.8, 0.7, 16, 384);
        InferenceRequest::text(id, self.history_tokens[user], output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_records(n: usize, done_s: u64) -> Vec<RequestRecord> {
        (0..n as u64)
            .map(|i| RequestRecord {
                id: i,
                arrival: SimTime::ZERO,
                first_token: SimTime::from_secs(1),
                completion: SimTime::from_secs(done_s),
                output_tokens: 10,
            })
            .collect()
    }

    #[test]
    fn turn_progression() {
        let mut w = ChatWorkload::new(25, 4, 0.2, 11);
        let t1 = w.first_turn();
        assert_eq!(t1.len(), 25);
        assert_eq!(w.issued_turns(), 1);

        let t2 = w.next_turn(&fake_records(25, 30)).unwrap();
        assert_eq!(t2.len(), 25);
        assert!(t2.iter().all(|(at, _)| *at > SimTime::from_secs(30)));

        w.next_turn(&fake_records(25, 60)).unwrap();
        w.next_turn(&fake_records(25, 90)).unwrap();
        assert!(
            w.next_turn(&fake_records(25, 120)).is_none(),
            "4 turns only"
        );
    }

    #[test]
    fn ids_are_unique_across_turns() {
        let mut w = ChatWorkload::new(5, 3, 1.0, 2);
        let mut ids = Vec::new();
        for (_, r) in w.first_turn() {
            ids.push(r.id.0);
        }
        for (_, r) in w.next_turn(&fake_records(5, 10)).unwrap() {
            ids.push(r.id.0);
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10);
    }

    #[test]
    #[should_panic(expected = "first_turn called twice")]
    fn double_first_turn_rejected() {
        let mut w = ChatWorkload::new(2, 2, 1.0, 0);
        w.first_turn();
        w.first_turn();
    }
}
