//! Shard planning: a stable job→shard assignment recorded in a JSON
//! shard map.
//!
//! A [`ShardPlan`] is a partition of the manifest's job indices into
//! per-shard index sets, each kept in ascending manifest order — so a
//! shard's submission order is the manifest's relative order, and the
//! merge can reconstruct the global order from positions alone. The
//! plan is a pure function of the manifest and the policy (no
//! wall-clock, no RNG), so planning the same manifest twice — on the
//! coordinator and in a post-mortem — yields the same map.

use tdals_obs::json::Json;
use tdals_server::Manifest;

use crate::ClusterError;

/// How jobs are dealt onto shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPolicy {
    /// Job `i` goes to shard `i % shards`: even counts, zero
    /// assumptions about cost.
    #[default]
    RoundRobin,
    /// Longest-processing-time-first over a per-job cost estimate
    /// (`population × iterations × vectors`, the knobs that scale the
    /// Monte-Carlo evaluation loop), so one heavy job does not serialize
    /// its shard behind it. The estimate never touches the circuit, so
    /// planning stays cheap and deterministic.
    SizeWeighted,
}

impl ShardPolicy {
    /// The CLI spelling (`--policy` value).
    pub fn cli_name(self) -> &'static str {
        match self {
            ShardPolicy::RoundRobin => "round-robin",
            ShardPolicy::SizeWeighted => "size-weighted",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(name: &str) -> Option<ShardPolicy> {
        match name {
            "round-robin" => Some(ShardPolicy::RoundRobin),
            "size-weighted" => Some(ShardPolicy::SizeWeighted),
            _ => None,
        }
    }
}

impl std::fmt::Display for ShardPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.cli_name())
    }
}

/// A stable partition of manifest job indices into shards; see the
/// module docs. Build one with [`plan`] or parse a recorded shard map
/// with [`ShardPlan::from_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    policy: ShardPolicy,
    jobs: usize,
    shards: Vec<Vec<usize>>,
}

/// Shard-map document schema version.
pub const SHARD_MAP_SCHEMA: u64 = 1;

/// Splits `manifest` into at most `shards` shards under `policy`.
/// Empty shards are never planned: the effective shard count is
/// `min(shards, jobs)`, because a worker runs a real sub-manifest and
/// an empty manifest is rejected everywhere else in the stack.
///
/// # Errors
///
/// [`ClusterError::Plan`] for zero shards or an empty manifest.
pub fn plan(
    manifest: &Manifest,
    shards: usize,
    policy: ShardPolicy,
) -> Result<ShardPlan, ClusterError> {
    if shards == 0 {
        return Err(ClusterError::Plan {
            what: "0 shards cannot run anything; pass 1 or more".into(),
        });
    }
    let jobs = manifest.jobs.len();
    if jobs == 0 {
        return Err(ClusterError::Plan {
            what: "manifest has no jobs to shard".into(),
        });
    }
    let count = shards.min(jobs);
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); count];
    match policy {
        ShardPolicy::RoundRobin => {
            for i in 0..jobs {
                assignment[i % count].push(i);
            }
        }
        ShardPolicy::SizeWeighted => {
            // LPT greedy: heaviest job first onto the least-loaded
            // shard. Ties break on index (weights) and on shard number
            // (loads), so the assignment is total-order deterministic.
            let weight = |i: usize| -> u128 {
                let j = &manifest.jobs[i];
                (j.population.max(1) as u128)
                    * (j.iterations.max(1) as u128)
                    * (j.vectors.max(1) as u128)
            };
            let mut order: Vec<usize> = (0..jobs).collect();
            order.sort_by(|&a, &b| weight(b).cmp(&weight(a)).then(a.cmp(&b)));
            let mut load = vec![0u128; count];
            for i in order {
                let lightest = (0..count)
                    .min_by_key(|&s| (load[s], s))
                    .expect("count >= 1");
                load[lightest] += weight(i);
                assignment[lightest].push(i);
            }
            // Ascending within each shard: shard-local submission order
            // must be the manifest's relative order for the merge to
            // reconstruct positions.
            for indices in &mut assignment {
                indices.sort_unstable();
            }
        }
    }
    Ok(ShardPlan {
        policy,
        jobs,
        shards: assignment,
    })
}

impl ShardPlan {
    /// How many (non-empty) shards the plan holds.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// How many jobs the planned manifest holds.
    pub fn job_count(&self) -> usize {
        self.jobs
    }

    /// The policy the plan was built under.
    pub fn policy(&self) -> ShardPolicy {
        self.policy
    }

    /// The manifest indices assigned to `shard`, ascending.
    pub fn jobs_of(&self, shard: usize) -> &[usize] {
        &self.shards[shard]
    }

    /// The sub-manifest `shard`'s worker runs: the assigned jobs in
    /// manifest-relative order, batch defaults carried over.
    pub fn manifest_for(&self, manifest: &Manifest, shard: usize) -> Manifest {
        manifest.subset(&self.shards[shard])
    }

    /// The shard map as a JSON document ([`ShardPlan::from_json`]
    /// round-trips it): schema, policy, job count, and the per-shard
    /// index arrays.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Num(SHARD_MAP_SCHEMA as f64)),
            ("policy".into(), Json::Str(self.policy.cli_name().into())),
            ("jobs".into(), Json::Num(self.jobs as f64)),
            (
                "shards".into(),
                Json::Arr(
                    self.shards
                        .iter()
                        .map(|indices| {
                            Json::Arr(indices.iter().map(|&i| Json::Num(i as f64)).collect())
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses and validates a recorded shard map: schema 1, a known
    /// policy, and index arrays that form a partition of `0..jobs` with
    /// each shard ascending and non-empty.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Plan`] naming the violated invariant.
    pub fn from_json(value: &Json) -> Result<ShardPlan, ClusterError> {
        let bad = |what: String| ClusterError::Plan { what };
        let schema = value
            .get("schema")
            .and_then(Json::as_uint)
            .ok_or_else(|| bad("shard map is missing `schema`".into()))?;
        if schema != SHARD_MAP_SCHEMA {
            return Err(bad(format!(
                "shard map schema {schema} is not the supported {SHARD_MAP_SCHEMA}"
            )));
        }
        let policy_name = value
            .get("policy")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("shard map is missing string `policy`".into()))?;
        let policy = ShardPolicy::parse(policy_name)
            .ok_or_else(|| bad(format!("unknown shard policy `{policy_name}`")))?;
        let jobs = value
            .get("jobs")
            .and_then(Json::as_uint)
            .ok_or_else(|| bad("shard map is missing integer `jobs`".into()))?
            as usize;
        let shard_arrays = value
            .get("shards")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("shard map is missing `shards` array".into()))?;
        let mut shards: Vec<Vec<usize>> = Vec::with_capacity(shard_arrays.len());
        let mut seen = vec![false; jobs];
        for (s, arr) in shard_arrays.iter().enumerate() {
            let indices = arr
                .as_array()
                .ok_or_else(|| bad(format!("shard {s} is not an index array")))?;
            if indices.is_empty() {
                return Err(bad(format!("shard {s} is empty; plans never hold one")));
            }
            let mut out = Vec::with_capacity(indices.len());
            for v in indices {
                let i = v
                    .as_uint()
                    .ok_or_else(|| bad(format!("shard {s} holds a non-index value")))?
                    as usize;
                if i >= jobs {
                    return Err(bad(format!(
                        "shard {s} references job {i}, but the manifest has {jobs}"
                    )));
                }
                if seen[i] {
                    return Err(bad(format!("job {i} is assigned to two shards")));
                }
                seen[i] = true;
                if let Some(&prev) = out.last() {
                    if prev >= i {
                        return Err(bad(format!(
                            "shard {s} indices are not ascending ({prev} before {i})"
                        )));
                    }
                }
                out.push(i);
            }
            shards.push(out);
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(bad(format!("job {missing} is assigned to no shard")));
        }
        Ok(ShardPlan {
            policy,
            jobs,
            shards,
        })
    }
}
