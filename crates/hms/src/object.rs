//! Data-object identities and metadata.
//!
//! The paper manages placement at the granularity of *data objects* —
//! application-level arrays and tiles allocated through the runtime's
//! `malloc`-style API — not pages. Objects may be *chunked* (split into
//! sub-objects) so that part of an object larger than DRAM can still be
//! placed, mirroring the paper's large-object decomposition.

use std::fmt;

/// Identifier of a target data object registered with the runtime.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// Index form for dense tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// Static metadata of a data object.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectMeta {
    /// The object's id.
    pub id: ObjectId,
    /// Size in bytes.
    pub size: u64,
    /// If this object is a chunk of a larger one: the parent id and the
    /// chunk index within the parent.
    pub chunk_of: Option<(ObjectId, u32)>,
}

impl ObjectMeta {
    /// True if this object is a chunk produced by large-object
    /// decomposition.
    pub fn is_chunk(&self) -> bool {
        self.chunk_of.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_format_is_compact() {
        assert_eq!(format!("{:?}", ObjectId(7)), "obj#7");
    }

    #[test]
    fn chunk_flag() {
        let plain = ObjectMeta {
            id: ObjectId(0),
            size: 64,
            chunk_of: None,
        };
        let chunk = ObjectMeta {
            id: ObjectId(1),
            size: 32,
            chunk_of: Some((ObjectId(0), 0)),
        };
        assert!(!plain.is_chunk());
        assert!(chunk.is_chunk());
    }
}
