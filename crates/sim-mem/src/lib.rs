//! Simulated physical memory and Linux-style kernel allocators.
//!
//! Sub-page vulnerabilities are *allocator placement* phenomena: what
//! matters to the paper is which objects share a 4 KiB page, where the
//! allocator keeps its own metadata, and how quickly freed pages are
//! reused. This crate reproduces those placement policies:
//!
//! - [`phys`] — the backing store: a sparse map of the 4 KiB frames
//!   touched so far, addressed by physical address.
//! - [`buddy`] — a buddy page allocator with per-CPU hot-page caches
//!   (Linux reuses recently freed pages first; §5.2.1 point 2).
//! - [`slab`] — SLUB-style `kmalloc` size-class caches whose freelist
//!   pointers live *inside the free objects on the page* (the type (b)
//!   OS-metadata exposure of Figure 1).
//! - [`page_frag`] — the `page_frag` bump-down allocator of Figure 5 that
//!   network drivers use for RX buffers, which inherently creates
//!   type (c) multiple-IOVA vulnerabilities.
//! - [`mem`] — the [`MemorySystem`] facade tying the above to the KASLR
//!   layout, with CPU access routed through KVAs so every access can be
//!   traced and checked.

pub mod buddy;
pub mod mem;
pub mod page_frag;
pub mod phys;
pub mod slab;

pub use buddy::BuddyAllocator;
pub use mem::{MemConfig, MemorySystem};
pub use page_frag::PageFragAllocator;
pub use phys::PhysMemory;
pub use slab::{KmallocCaches, SIZE_CLASSES};
