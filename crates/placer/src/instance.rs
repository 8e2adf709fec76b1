//! Placement instances, placements and the Equation-5 objective.

/// Whether a model offers or needs HBM (the paper's `t_m`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Compute-bound model with spare HBM (`t_m = +1`).
    Producer,
    /// Memory-bound model with an HBM deficit (`t_m = -1`).
    Consumer,
}

/// One model to place: name plus signed memory requirement `R_m`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelSpec {
    /// Model name (for reports).
    pub name: String,
    /// Signed memory in bytes: positive = excess offered (producer),
    /// negative = deficit (consumer). "The model's memory requirement is
    /// positive if it is a producer and negative if it is a consumer."
    pub mem_bytes: i64,
}

impl ModelSpec {
    /// A producer offering `excess` bytes.
    pub fn producer(name: impl Into<String>, excess: u64) -> Self {
        ModelSpec {
            name: name.into(),
            mem_bytes: excess as i64,
        }
    }

    /// A consumer needing `deficit` bytes.
    pub fn consumer(name: impl Into<String>, deficit: u64) -> Self {
        ModelSpec {
            name: name.into(),
            mem_bytes: -(deficit as i64),
        }
    }

    /// The paper's `t_m`: +1 for producers, −1 for consumers.
    pub fn t(&self) -> i64 {
        if self.mem_bytes >= 0 {
            1
        } else {
            -1
        }
    }

    /// Producer/consumer classification.
    pub fn role(&self) -> Role {
        if self.mem_bytes >= 0 {
            Role::Producer
        } else {
            Role::Consumer
        }
    }
}

/// The placement optimisation instance (Algorithm 1 inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementInstance {
    /// Number of servers `S`.
    pub servers: usize,
    /// GPUs per server `G`.
    pub gpus_per_server: usize,
    /// HBM per GPU `G_mem`, bytes.
    pub gpu_mem_bytes: u64,
    /// Models to place.
    pub models: Vec<ModelSpec>,
}

impl PlacementInstance {
    /// Builds an instance.
    ///
    /// # Panics
    ///
    /// Panics if the models cannot fit (`models.len() > servers × G`) or any
    /// dimension is zero.
    pub fn new(
        servers: usize,
        gpus_per_server: usize,
        gpu_mem_bytes: u64,
        models: Vec<ModelSpec>,
    ) -> Self {
        assert!(
            servers > 0 && gpus_per_server > 0,
            "cluster must be non-empty"
        );
        assert!(
            models.len() <= servers * gpus_per_server,
            "more models ({}) than GPUs ({})",
            models.len(),
            servers * gpus_per_server
        );
        PlacementInstance {
            servers,
            gpus_per_server,
            gpu_mem_bytes,
            models,
        }
    }

    /// Equation-5 objective of an assignment (`model → server`), lower is
    /// better: `max_s(mem_s) + G_mem · max_s(eq_s)`.
    pub fn objective(&self, assignment: &[usize]) -> i128 {
        let mut mem = vec![0i64; self.servers];
        let mut eq = vec![0i64; self.servers];
        for (m, &s) in assignment.iter().enumerate() {
            mem[s] += self.models[m].mem_bytes;
            eq[s] += self.models[m].t();
        }
        let max_mem = mem.iter().copied().max().unwrap_or(0);
        let max_eq = eq.iter().copied().max().unwrap_or(0);
        max_mem as i128 + self.gpu_mem_bytes as i128 * max_eq as i128
    }
}

/// A computed placement: `assignment[m]` is the server hosting model `m`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Server index per model.
    pub assignment: Vec<usize>,
}

/// Constraint-violation report from [`Placement::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// A model was assigned to a server index outside `0..S`.
    ServerOutOfRange {
        /// Offending model index.
        model: usize,
        /// Assigned server.
        server: usize,
    },
    /// A server got more models than it has GPUs (Equation 2).
    ServerOverCapacity {
        /// Overfull server.
        server: usize,
        /// Models assigned to it.
        assigned: usize,
        /// Its GPU count.
        capacity: usize,
    },
    /// The assignment vector length does not equal the model count
    /// (Equation 1 — every model maps to exactly one server).
    WrongLength {
        /// Expected number of models.
        expected: usize,
        /// Actual assignment length.
        actual: usize,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::ServerOutOfRange { model, server } => {
                write!(f, "model {model} assigned to nonexistent server {server}")
            }
            PlacementError::ServerOverCapacity {
                server,
                assigned,
                capacity,
            } => write!(
                f,
                "server {server} holds {assigned} models but has {capacity} GPUs"
            ),
            PlacementError::WrongLength { expected, actual } => {
                write!(f, "assignment covers {actual} models, expected {expected}")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

impl Placement {
    /// Indices of models assigned to `server`.
    pub fn models_on(&self, server: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == server)
            .map(|(m, _)| m)
            .collect()
    }

    /// Checks Equations 1–2 against an instance.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self, inst: &PlacementInstance) -> Result<(), PlacementError> {
        if self.assignment.len() != inst.models.len() {
            return Err(PlacementError::WrongLength {
                expected: inst.models.len(),
                actual: self.assignment.len(),
            });
        }
        let mut counts = vec![0usize; inst.servers];
        for (m, &s) in self.assignment.iter().enumerate() {
            if s >= inst.servers {
                return Err(PlacementError::ServerOutOfRange {
                    model: m,
                    server: s,
                });
            }
            counts[s] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            if c > inst.gpus_per_server {
                return Err(PlacementError::ServerOverCapacity {
                    server: s,
                    assigned: c,
                    capacity: inst.gpus_per_server,
                });
            }
        }
        Ok(())
    }

    /// Objective value under an instance (Equation 5).
    pub fn objective(&self, inst: &PlacementInstance) -> i128 {
        inst.objective(&self.assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1 << 30;

    fn fig4_instance() -> PlacementInstance {
        PlacementInstance::new(
            2,
            2,
            80 * GB,
            vec![
                ModelSpec::producer("v0", 40 * GB),
                ModelSpec::producer("v1", 40 * GB),
                ModelSpec::consumer("l0", 30 * GB),
                ModelSpec::consumer("l1", 30 * GB),
            ],
        )
    }

    #[test]
    fn roles_and_signs() {
        let p = ModelSpec::producer("p", 10);
        let c = ModelSpec::consumer("c", 10);
        assert_eq!(p.t(), 1);
        assert_eq!(c.t(), -1);
        assert_eq!(p.role(), Role::Producer);
        assert_eq!(c.role(), Role::Consumer);
        assert_eq!(c.mem_bytes, -10);
    }

    #[test]
    fn objective_prefers_colocation() {
        let inst = fig4_instance();
        // Figure 4a: producers together, consumers together.
        let segregated = inst.objective(&[0, 0, 1, 1]);
        // Figure 4b: one producer + one consumer per server.
        let colocated = inst.objective(&[0, 1, 0, 1]);
        assert!(
            colocated < segregated,
            "colocated {colocated} must beat segregated {segregated}"
        );
    }

    #[test]
    fn validation_catches_violations() {
        let inst = fig4_instance();
        let ok = Placement {
            assignment: vec![0, 1, 0, 1],
        };
        assert!(ok.validate(&inst).is_ok());

        let too_short = Placement {
            assignment: vec![0, 1],
        };
        assert!(matches!(
            too_short.validate(&inst),
            Err(PlacementError::WrongLength { .. })
        ));

        let bad_server = Placement {
            assignment: vec![0, 1, 0, 7],
        };
        assert!(matches!(
            bad_server.validate(&inst),
            Err(PlacementError::ServerOutOfRange { .. })
        ));

        let overfull = Placement {
            assignment: vec![0, 0, 0, 1],
        };
        let err = overfull.validate(&inst).unwrap_err();
        assert!(matches!(err, PlacementError::ServerOverCapacity { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn models_on_lists_members() {
        let p = Placement {
            assignment: vec![0, 1, 0, 1],
        };
        assert_eq!(p.models_on(0), vec![0, 2]);
        assert_eq!(p.models_on(1), vec![1, 3]);
        assert!(p.models_on(2).is_empty());
    }

    #[test]
    #[should_panic(expected = "more models")]
    fn too_many_models_rejected() {
        PlacementInstance::new(
            1,
            1,
            GB,
            vec![ModelSpec::producer("a", 1), ModelSpec::producer("b", 1)],
        );
    }

    #[test]
    fn empty_server_contributes_zero_to_maxes() {
        let inst = PlacementInstance::new(2, 2, 80 * GB, vec![ModelSpec::consumer("c", 30 * GB)]);
        // Consumer alone: mem_0 = -30 GB, but server 1 is empty with mem = 0,
        // so max_s(mem_s) = 0 and max_s(eq_s) = 0.
        assert_eq!(inst.objective(&[0]), 0);
    }
}
