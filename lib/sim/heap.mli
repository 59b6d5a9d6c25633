(** Binary min-heap for the event queue, keyed by [(time, seq)] so
    same-time events pop in insertion order (determinism).  Stored as
    parallel arrays: a push allocates nothing once grown, and no slot
    past the live size keeps a popped value reachable. *)

type 'a t

(** [dummy] fills empty value slots. *)
val create : dummy:'a -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> time:float -> seq:int -> 'a -> unit

(** Time of the minimum entry; [Invalid_argument] when empty. *)
val min_time : 'a t -> float

(** Remove and return the minimum entry's value; [Invalid_argument]
    when empty. *)
val pop : 'a t -> 'a
