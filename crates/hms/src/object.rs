//! Data-object identities and metadata.
//!
//! The paper manages placement at the granularity of *data objects* —
//! application-level arrays and tiles allocated through the runtime's
//! `malloc`-style API — not pages. A chunk of a large object (the
//! paper's large-object decomposition) is an object of its own here; the
//! virtual-time driver keeps the chunk-to-parent map.

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_format_is_compact() {
        assert_eq!(format!("{:?}", ObjectId(7)), "obj#7");
    }
}
