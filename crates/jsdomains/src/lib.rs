//! Abstract domains for the addon-sig base analysis.
//!
//! This crate provides the lattices used by the abstract interpreter in
//! `jsanalysis`:
//!
//! - [`Pre`], the **prefix string domain** of Section 5 of the paper
//!   (exact strings + known prefixes), used both for inferring network
//!   domains and for abstract property names;
//! - [`NumDom`] / [`BoolDom`], flat constant domains;
//! - [`AValue`], the reduced-product abstract value;
//! - [`AObject`] / [`Heap`], allocation-site-summarized abstract objects
//!   with singleton tracking (the enabler of strong updates and thus of
//!   the paper's `datastrong` PDG edges). The heap is a vector of
//!   shared chunks of 16 allocation sites' shared objects. Its join
//!   keeps a site's object when that already is the join, takes the
//!   incoming object's `Rc` when that is the join (both decided by
//!   [`AObject::join_would_change`]), and copies and merges an object
//!   only otherwise;
//! - [`SortedMap`] and [`SiteSet`], the compact layouts phase 1 copies
//!   and joins: an object's maps as one sorted vector each, and a
//!   value's address set inline up to two sites.
//!
//! # Examples
//!
//! The motivating example from Section 5 -- joining two URLs built from a
//! common base keeps the network domain:
//!
//! ```
//! use jsdomains::{Lattice, Pre};
//!
//! let base = Pre::exact("www.example.com/req?");
//! let with_name = base.concat(&Pre::exact("name"));
//! let with_age = base.concat(&Pre::exact("age"));
//! assert_eq!(
//!     with_name.join(&with_age),
//!     Pre::prefix("www.example.com/req?"),
//! );
//! ```

#![warn(missing_docs)]

mod consts;
mod lattice;
mod object;
mod prefix;
mod sites;
mod sorted_map;
mod sym;
mod value;

pub use consts::{BoolDom, NumDom};
pub use lattice::{Lattice, MeetLattice};
pub use object::{cow_clone_count, AObject, FuncIndex, Heap, NativeId, ObjKind};
pub use prefix::Pre;
pub use sites::SiteSet;
pub use sorted_map::SortedMap;
pub use sym::{job_scope, Sym};
pub use value::{AValue, AllocSite};
