//! Persistence of maintainer state.
//!
//! "The system can persist the state that it maintains for its incremental
//! operators in the database. This enables the system to continue
//! incremental maintenance from a consistent state, e.g., when the
//! database is restarted, or when we are running out of memory and need to
//! evict the operator states for a query" (paper §2).
//!
//! The encoding walks the operator tree in a fixed order; restoring
//! requires a maintainer built from the *same plan and configuration*
//! (the store keys state by query template, so that is guaranteed).
//! Join-side indexes are persisted: rebuilding one costs a full
//! evaluation of the input, which is exactly the round trip the index
//! exists to avoid.
//!
//! Pooled annotations are encoded by *content* (their bitvectors), never
//! by [`imp_storage::AnnotId`] — ids are only canonical within one live
//! pool. Restoring re-interns every annotation the state carries into the
//! maintainer's pool, so after a round-trip (including an eviction that
//! cleared the pool) the restored state shares allocations and ids with
//! the live delta pipeline again.

use crate::error::CoreError;
use crate::maintain::SketchMaintainer;
use crate::ops::IncNode;
use crate::Result;
use bytes::{Bytes, BytesMut};
use imp_sketch::SketchSet;
use imp_storage::{codec, AnnotPool};

/// Serialize the full maintainer state (sketch, version, μ counters,
/// every stateful operator).
pub fn save_state(m: &SketchMaintainer) -> Bytes {
    let mut buf = BytesMut::new();
    codec::encode_header(&mut buf);
    let (root, merge, sketch, version) = m.parts();
    codec::encode_u64(&mut buf, version);
    codec::encode_bitvec(&mut buf, sketch.bits());
    merge.encode_state(&mut buf);
    encode_node(root, &mut buf);
    buf.freeze()
}

/// Restore state produced by [`save_state`] into a maintainer built from
/// the same plan and configuration.
pub fn load_state(m: &mut SketchMaintainer, mut bytes: Bytes) -> Result<()> {
    codec::decode_header(&mut bytes).map_err(|e| CoreError::Codec(e.to_string()))?;
    let version = codec::decode_u64(&mut bytes).map_err(|e| CoreError::Codec(e.to_string()))?;
    let bits = codec::decode_bitvec(&mut bytes).map_err(|e| CoreError::Codec(e.to_string()))?;
    let pset = std::sync::Arc::clone(m.partitions());
    if bits.len() != pset.total_fragments() {
        return Err(CoreError::Codec(format!(
            "sketch width mismatch: stored {}, expected {}",
            bits.len(),
            pset.total_fragments()
        )));
    }
    let (root, merge, sketch, last_version, pool) = m.parts_mut();
    *sketch = SketchSet::from_bits(pset, bits);
    *last_version = version;
    merge.decode_state(&mut bytes)?;
    decode_node(root, &mut bytes, pool)?;
    if !bytes.is_empty() {
        return Err(CoreError::Codec(format!(
            "{} trailing bytes after state",
            bytes.len()
        )));
    }
    Ok(())
}

fn encode_node(node: &IncNode, buf: &mut BytesMut) {
    match node {
        IncNode::Nary(n) => n.encode_state(buf),
        IncNode::Aggregate(a) => a.encode_state(buf),
        IncNode::TopK(t) => t.encode_state(buf),
        _ => {}
    }
    node.for_each_child(&mut |child| encode_node(child, buf));
}

fn decode_node(node: &mut IncNode, buf: &mut Bytes, pool: &mut AnnotPool) -> Result<()> {
    match node {
        IncNode::TableAccess { .. } => Ok(()),
        IncNode::Selection { input, .. }
        | IncNode::Projection { input, .. }
        | IncNode::Passthrough { input }
        | IncNode::EngineSpj { input, .. } => decode_node(input, buf, pool),
        IncNode::Nary(n) => {
            n.decode_state(buf, pool)?;
            for child in n.children_mut() {
                decode_node(child, buf, pool)?;
            }
            Ok(())
        }
        IncNode::Aggregate(a) => {
            a.decode_state(buf)?;
            decode_node(a.input_child_mut(), buf, pool)
        }
        IncNode::TopK(t) => {
            t.decode_state(buf, pool)?;
            decode_node(t.input_child_mut(), buf, pool)
        }
    }
}
