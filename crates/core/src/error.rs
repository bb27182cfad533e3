//! Error type for Diff-Index operations.

use diff_index_cluster::ClusterError;
use std::fmt;

/// Errors from index creation, maintenance and reads.
#[derive(Debug)]
pub enum IndexError {
    /// Underlying cluster/storage failure.
    Cluster(ClusterError),
    /// The named index does not exist.
    NoSuchIndex(String),
    /// An index with that name already exists on the base table.
    IndexExists(String),
    /// The session has been inactive past its lifetime limit and was
    /// garbage-collected (§5.2); start a new session.
    SessionExpired,
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Cluster(e) => write!(f, "cluster: {e}"),
            IndexError::NoSuchIndex(n) => write!(f, "no such index: {n}"),
            IndexError::IndexExists(n) => write!(f, "index already exists: {n}"),
            IndexError::SessionExpired => write!(f, "session expired"),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ClusterError> for IndexError {
    fn from(e: ClusterError) -> Self {
        IndexError::Cluster(e)
    }
}

/// An index failure surfaced through a cluster-level interface (observer
/// hooks, network error responses): cluster errors pass through unchanged,
/// index-layer ones become [`ClusterError::Unavailable`].
impl From<IndexError> for ClusterError {
    fn from(e: IndexError) -> Self {
        match e {
            IndexError::Cluster(c) => c,
            other => ClusterError::Unavailable(other.to_string()),
        }
    }
}

/// Result alias for Diff-Index operations.
pub type Result<T> = std::result::Result<T, IndexError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        assert!(IndexError::NoSuchIndex("i".into()).to_string().contains('i'));
        assert!(IndexError::SessionExpired.to_string().contains("expired"));
        let e = IndexError::from(ClusterError::NoSuchTable("t".into()));
        assert!(std::error::Error::source(&e).is_some());
    }
}
