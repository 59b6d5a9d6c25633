(** Fleet placement: device-class → shard routing and load accounting.

    The fleet control plane: which shards own which device class, how
    many guest links each carries, and which moves would even out a
    skewed fleet.  Used before shard domains start
    and after they join — never shared between running domains.  All
    decisions are deterministic (least-loaded, ties → lowest id). *)

type t

exception No_owner of string
(** Raised by {!route_open} for a device class no shard owns. *)

val create : shards:int -> t

(** Declare that [shard] serves device class [cls].  Idempotent. *)
val register : t -> shard:int -> cls:string -> unit

(** Shard ids owning [cls], ascending ([[]] if none). *)
val owners : t -> string -> int list

(** Route a guest link opening a device of class [cls]: least-loaded
    owning shard, ties → lowest id; bumps its link count.  Raises
    {!No_owner}. *)
val route_open : t -> string -> int

type move = { mv_src : int; mv_dst : int; mv_count : int }

(** Plan link moves (between shards sharing a device class) that bring
    every such pair within one link.  Pure planning; deterministic. *)
val rebalance_plan : t -> move list
