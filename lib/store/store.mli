(** Content-addressed persistent object store, tiered by namespace.

    Maps a content key (the hex digest of a canonical key string) to an
    opaque payload on disk, with a write-through in-memory layer shared by
    every client of one handle.  Objects live in {e namespaces} (one per
    artifact kind — solved designs, simulation runs, trace statistics,
    library characterisations), which share the envelope, eviction and
    memory-layer machinery but are counted separately by {!stats}.  The
    layer above (Driver) decides what a key canonically contains and what
    the payload encodes; this module owns durability only:

    - {b integrity}: every object is wrapped in an envelope carrying a
      format magic/version, a logical clock, its measured recompute cost
      and a payload checksum; a short read, a flipped bit or a version skew
      makes {!find} return [None] (a miss), never a crash, and the damaged
      file is removed;
    - {b crash safety}: objects are written to a temp file and atomically
      renamed into place, so an interrupted writer can never leave a
      half-written object visible;
    - {b bounded size}: a handle tracks the store's byte total in a
      path-to-size index, built by one directory scan on its first {!put}
      (not by {!open_store}) and updated by its own writes, overwrites,
      evictions and removals, so a write costs one file write.  Once the
      tracked total exceeds the byte cap, a full scan re-syncs the index
      with the disk and evicts the objects cheapest to recompute per byte
      first (by the recorded [cost_ns] / size ratio), breaking ties by a
      monotonic logical clock (least recently touched first) that hits
      refresh in place.  A handle reserves clock ticks in blocks of 1024
      and persists the block's ceiling in a [clock] file at the store
      root before issuing its first tick, so the [clock] file is
      rewritten once per block, and a later handle — even after a crash
      — starts above every tick issued before it: recency ordering
      survives restarts at full resolution, with no 1-second mtime ties.

    Concurrent processes may share a directory: rename is atomic and every
    object is self-validating.  Writes by another process count towards
    this handle's total once this handle's next scan (on exceeding the
    cap, or {!gc}) sees them.  Within a process a handle is thread-safe
    (one mutex; the payloads move in and out as immutable strings). *)

type t

val default_dir : unit -> string
(** [IMPACT_CACHE_DIR] when set, else [$XDG_CACHE_HOME/impact], else
    [$HOME/.cache/impact], else [./.impact-cache]. *)

val default_max_bytes : int
(** 256 MiB, overridable per handle or via [IMPACT_CACHE_MAX_BYTES]. *)

val default_ns : string
(** The namespace used when [?ns] is omitted: ["design"], the solved-design
    tier. *)

val open_store : ?dir:string -> ?max_bytes:int -> ?mem_capacity:int -> unit -> t
(** Creates the directory layout if needed.  [max_bytes] defaults to
    [IMPACT_CACHE_MAX_BYTES] when set, {!default_max_bytes} otherwise;
    [mem_capacity] caps the in-memory entry count (default 128). *)

val dir : t -> string
val max_bytes : t -> int

val key : string -> string
(** The content address of a canonical key string (hex digest). *)

val find : ?ns:string -> t -> string -> string option
(** The payload stored under a key in the namespace, or [None] — unknown
    key, or an object that failed validation (truncated, checksum mismatch,
    foreign version) and was discarded.  Hits refresh the object's logical
    clock (in place, outside the checksummed region) and promote it into
    the memory layer. *)

val put : ?ns:string -> ?cost_ns:int -> t -> string -> string -> unit
(** Persists (atomic rename) and caches in memory; then, if the tracked
    total exceeds the cap, scans and evicts objects until the store fits.
    [cost_ns] records what the payload cost to compute — the eviction
    policy keeps expensive-per-byte objects longest.  Write errors (permissions, full disk) are swallowed: the
    store is a cache, losing a write only costs the next run a recompute. *)

val clear : t -> int
(** Removes every object in every namespace (and the memory layer);
    returns the count. *)

val gc : ?max_bytes:int -> t -> int
(** Scans the store (re-syncing the tracked total) and evicts objects
    (cheapest recompute-per-byte first, clock tiebreak) until the store
    fits the cap (default: the handle's); returns the eviction count. *)

type gc_tier = {
  gt_ns : string;  (** namespace *)
  gt_evicted : int;  (** objects evicted from it *)
  gt_bytes : int;  (** envelope + payload bytes reclaimed from it *)
}

val gc_report : ?max_bytes:int -> t -> int * gc_tier list
(** {!gc} plus a per-namespace breakdown of what was reclaimed, sorted by
    namespace ([[]] when nothing was evicted). *)

type tier_stats = {
  ts_entries : int;  (** objects on disk in this namespace *)
  ts_bytes : int;  (** payload + envelope bytes on disk *)
  ts_hits : int;  (** this handle's lookup hits *)
  ts_misses : int;  (** this handle's lookup misses *)
  ts_writes : int;  (** objects persisted by this handle *)
}

type stats = {
  st_entries : int;  (** objects on disk, all namespaces *)
  st_bytes : int;  (** payload + envelope bytes on disk *)
  st_mem_entries : int;  (** objects in the memory layer *)
  st_hits : int;  (** this handle's lookup hits (memory or disk) *)
  st_misses : int;  (** this handle's lookup misses (absent or invalid) *)
  st_writes : int;  (** objects persisted by this handle *)
  st_evicted : int;  (** objects evicted by this handle *)
  st_tiers : (string * tier_stats) list;
      (** per-namespace breakdown, sorted by name; includes every namespace
          with disk objects or lookup/write activity on this handle *)
}

val stats : t -> stats
(** Scans the disk for the entry and byte counts. *)

val hits : ?ns:string -> t -> int
(** This handle's lookup hits in one namespace (default {!default_ns}):
    [ts_hits] without the directory scan {!stats} makes. *)

val human_bytes : int -> string
(** ["65.4 KiB"], not ["65389"] — binary units, one decimal (bare ["B"]
    under 1 KiB). *)
