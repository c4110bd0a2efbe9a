//! KV-cache capacity accounting: the contiguous (PR 2) layout and a
//! vLLM-style block-granular paged layout with fragmentation accounting.
//!
//! The engine only asks two questions — "does this projected occupancy
//! fit?" and "how many bytes does it pin?" — so both layouts sit behind
//! the same arithmetic surface: token counts go in, a byte footprint
//! comes out. Contiguous charges exactly `tokens × bytes/token`; paged
//! charges whole blocks (`⌈tokens / block⌉ × block × bytes/token`), which
//! adds internal fragmentation the report surfaces.

use crate::error::OptimusError;
use serde::{Deserialize, Serialize};

/// How KV-cache capacity is accounted during admission and growth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KvLayout {
    /// Token-granular contiguous allocation (PR 2 semantics): a sequence
    /// pins exactly `kv_len × bytes/token`.
    Contiguous,
    /// Block-granular paged allocation: a sequence pins
    /// `⌈kv_len / block_tokens⌉` blocks; partially-filled tail blocks are
    /// internal fragmentation.
    Paged {
        /// Tokens per block (vLLM defaults to 16).
        block_tokens: u32,
    },
}

impl KvLayout {
    /// Tokens charged against capacity for a sequence of `kv_len` cached
    /// tokens: `kv_len` when contiguous, the block-rounded footprint when
    /// paged.
    #[must_use]
    pub fn charged_tokens(&self, kv_len: u64) -> u64 {
        match *self {
            Self::Contiguous => kv_len,
            Self::Paged { block_tokens } => {
                kv_len.div_ceil(u64::from(block_tokens)) * u64::from(block_tokens)
            }
        }
    }

    pub(crate) fn validate(&self) -> Result<(), OptimusError> {
        if let Self::Paged { block_tokens: 0 } = self {
            return Err(OptimusError::Serving {
                reason: "paged KV layout needs block_tokens ≥ 1".to_owned(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charged_tokens_rounds_up_only_when_paged() {
        assert_eq!(KvLayout::Contiguous.charged_tokens(33), 33);
        let paged = KvLayout::Paged { block_tokens: 16 };
        assert_eq!(paged.charged_tokens(33), 48);
        assert_eq!(paged.charged_tokens(32), 32);
        assert_eq!(paged.charged_tokens(0), 0);
        assert!(KvLayout::Paged { block_tokens: 0 }.validate().is_err());
        assert!(paged.validate().is_ok());
    }
}
