(** Software TLB: per-address-space translation cache with
    generation-counter invalidation (see the .ml header for the
    staleness argument).  Caches gva→spa for the combined
    guest-PT+EPT walk and gpa→spa for EPT-only walks; a hit re-checks
    the cached leaf permissions, so validation stays on — only the
    walk cost is removed. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable walks : int;  (** full software walks performed (slow path) *)
}

val create_stats : unit -> stats

type entry = {
  spn : int;
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

val flush : t -> unit

(** Bumped by {!flush} and by the wholesale reset at [max_entries]:
    an entry present when the epoch read [e] is still present while it
    reads [e] (fills never evict other keys).  Frame caches layered on
    top of the TLB (the shared-page views) stamp with it. *)
val epoch : t -> int

(** Returns the backing frame iff the entry under [key] is
    generation-current and its cached permissions allow [access], and
    [-1] otherwise; counts a hit or miss. *)
val lookup : t -> key:int -> access:Perm.access -> pt_gen:int -> ept_gen:int -> int

val install : t -> key:int -> entry -> unit
val count_walks : t -> int -> unit
