(** Software TLB: per-address-space translation cache with
    generation-counter invalidation (see the .ml header for the
    staleness argument).  Caches gva→spa for the combined
    guest-PT+EPT walk and gpa→spa for EPT-only walks; a hit re-checks
    the cached leaf permissions, so validation stays on — only the
    walk cost is removed.  An entry carries its backing frame, and a
    small direct-mapped front array answers repeat probes before the
    hash table. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable walks : int;  (** full software walks performed (slow path) *)
}

val create_stats : unit -> stats

type entry = {
  key : int;  (** {!key} of the translated page *)
  spn : int;
  frame : Bytes.t;
      (** the page's backing bytes ({!Phys_mem.cached_frame}), or
          {!Phys_mem.no_frame} for an MMIO or unbacked page *)
  pt_perms : Perm.t;  (** guest-PT leaf perms; [Perm.rwx] for gpa entries *)
  ept_perms : Perm.t;
  pt_gen : int;  (** guest-PT generation at fill; 0 for gpa entries *)
  ept_gen : int;
}

type t

(** Space id for EPT-only (gpa→spa) entries; guest-PT ids start at 1. *)
val gpa_space : int

(** [key ~space ~vfn] packs an entry's key into one int,
    [space lsl 40 lor vfn], when [0 <= vfn < 2{^40}] and
    [0 <= space < 2{^22}], so distinct such pairs give distinct keys;
    any other pair gets {!no_key}. *)
val key : space:int -> vfn:int -> int

(** The key of a pair that does not pack: {!lookup} misses on it and
    {!install} ignores it, so the caller always walks. *)
val no_key : int

(** [create ?max_entries ?stats ()] — [stats] may be shared (e.g. with
    the hypervisor's audit counters); the cache resets wholesale when
    [max_entries] is reached. *)
val create : ?max_entries:int -> ?stats:stats -> unit -> t

val stats : t -> stats
val entry_count : t -> int
val enabled : t -> bool

(** Disable to measure the uncached walk path (ablation); a disabled
    cache neither hits nor installs, and counts nothing. *)
val set_enabled : t -> bool -> unit

(** Drops every entry, from the table and the front array alike. *)
val flush : t -> unit

(** Bumped by {!flush} and by the wholesale reset at [max_entries]:
    an entry present when the epoch read [e] is still present while it
    reads [e] (fills never evict other keys).  Frame caches layered on
    top of the TLB (the shared-page views) stamp with it. *)
val epoch : t -> int

(** What {!lookup} returns on a miss; compare with [==]. *)
val absent : entry

(** Returns the entry under [key] iff it is generation-current and its
    cached permissions allow [access], and {!absent} otherwise; counts
    a hit or miss.  A probe answered by the front array counts exactly
    as one answered by the table. *)
val lookup : t -> key:int -> access:Perm.access -> pt_gen:int -> ept_gen:int -> entry

(** Stores [e] under [e.key], replacing any entry with that key in the
    table and whatever its front-array slot held; ignored when the
    cache is disabled or the key is {!no_key}. *)
val install : t -> entry -> unit
val count_walks : t -> int -> unit
