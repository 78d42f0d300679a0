//! The deterministic merger: per-shard results documents back into
//! manifest order, byte-identical to the unsharded run.
//!
//! Why byte-identity holds: a result record is a pure function of its
//! job (seeds drive all randomness, wall-clock is excluded), a shard's
//! worker emits records in shard-local submission order with local
//! `job` indices, and the JSON printer is roundtrip-stable
//! (`print ∘ parse ∘ print = print`, pinned by the codec's golden
//! tests). So parsing each shard document, rewriting each record's
//! local index to the global one the [`ShardPlan`] recorded, and
//! reprinting in global order reproduces exactly the bytes
//! `tdals serve-batch` would have written for the whole manifest.

use tdals_obs::json::Json;
use tdals_server::results_document_from_records;

use crate::plan::ShardPlan;
use crate::ClusterError;

/// Stitches the per-shard results documents (one text per shard, in
/// shard order) into the unsharded results document, trailing newline
/// included. Every record's shard-local `job` index is validated
/// against its position before being rewritten to the global index, so
/// a worker that reordered or dropped records is caught here rather
/// than silently merged.
///
/// # Errors
///
/// [`ClusterError::Merge`] naming the count, schema, or index
/// invariant that broke.
pub fn merge(plan: &ShardPlan, shard_docs: &[String]) -> Result<String, ClusterError> {
    let bad = |what: String| ClusterError::Merge { what };
    if shard_docs.len() != plan.shard_count() {
        return Err(bad(format!(
            "{} shard document(s) for a {}-shard plan",
            shard_docs.len(),
            plan.shard_count()
        )));
    }
    let mut global: Vec<Option<Json>> = vec![None; plan.job_count()];
    for (shard, text) in shard_docs.iter().enumerate() {
        let doc = Json::parse(text)
            .map_err(|e| bad(format!("shard {shard} results are not valid JSON: {e}")))?;
        let schema = doc.get("schema").and_then(Json::as_uint);
        if schema != Some(1) {
            return Err(bad(format!(
                "shard {shard} results schema is {schema:?}, expected 1"
            )));
        }
        let records = doc
            .get("results")
            .and_then(Json::as_array)
            .ok_or_else(|| bad(format!("shard {shard} results have no `results` array")))?;
        let indices = plan.jobs_of(shard);
        if records.len() != indices.len() {
            return Err(bad(format!(
                "shard {shard} holds {} record(s) for {} assigned job(s)",
                records.len(),
                indices.len()
            )));
        }
        for (local, (record, &global_index)) in records.iter().zip(indices).enumerate() {
            let Json::Obj(members) = record else {
                return Err(bad(format!(
                    "shard {shard} record {local} is not an object"
                )));
            };
            // The worker wrote shard-local submission indices; they
            // must match positions exactly or the order contract broke.
            let written = record.get("job").and_then(Json::as_uint);
            if written != Some(local as u64) {
                return Err(bad(format!(
                    "shard {shard} record {local} carries job index {written:?}"
                )));
            }
            let rewritten: Vec<(String, Json)> = members
                .iter()
                .map(|(k, v)| {
                    if k == "job" {
                        (k.clone(), Json::Num(global_index as f64))
                    } else {
                        (k.clone(), v.clone())
                    }
                })
                .collect();
            global[global_index] = Some(Json::Obj(rewritten));
        }
    }
    let records: Vec<Json> = global
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.ok_or_else(|| bad(format!("job {i} has no record after the merge"))))
        .collect::<Result<_, _>>()?;
    Ok(format!("{}\n", results_document_from_records(records)))
}
