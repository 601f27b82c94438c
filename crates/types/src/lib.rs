//! Common types shared by every crate in the `smoothscan` workspace.
//!
//! This crate defines the vocabulary of the engine: [`Value`]s and
//! [`DataType`]s, [`Schema`]s, the on-page [`Row`] codec, tuple identifiers
//! ([`Tid`]) and the workspace-wide [`Error`] type.
//!
//! The representations deliberately mirror the PostgreSQL concepts the paper
//! builds on: a heap tuple is addressed by a *TID* `(page, slot)`, rows are
//! stored in slotted 8 KB pages, and secondary indexes map key values to
//! TIDs. Keeping these types in a leaf crate lets the storage engine, the
//! B+-tree, the executor and the Smooth Scan operator evolve independently.

pub mod columns;
pub mod error;
pub mod row;
pub mod schema;
pub mod spill;
pub mod tid;
pub mod value;

pub use columns::{
    force_text_views, text_decode_counters, text_views_enabled, ColumnBatch, ColumnBuffer,
    ColumnValues, ColumnVector, SharedBytes, TextColumn, DEFAULT_BATCH_SIZE,
};
pub use error::{Error, Result};
pub use row::Row;
pub use schema::{Column, Schema};
pub use tid::{PageId, SlotId, Tid};
pub use value::{DataType, Value};

/// Page size used throughout the engine, matching PostgreSQL's default
/// (and the paper's experimental setup, Section VI-C).
pub const PAGE_SIZE: usize = 8192;

// Compile-time Send/Sync audit: columnar morsels (and everything they
// carry) cross worker-thread boundaries in the parallel pipeline
// driver, so these bounds are part of this crate's public contract —
// adding interior mutability or thread-bound state to any of them is a
// breaking change that must fail right here.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Value>();
    assert_send_sync::<Row>();
    assert_send_sync::<Schema>();
    assert_send_sync::<TextColumn>();
    assert_send_sync::<ColumnVector>();
    assert_send_sync::<ColumnBatch>();
    assert_send_sync::<ColumnBuffer>();
    assert_send_sync::<Error>();
};
