(** Binary min-heap for the event queue, keyed by [(time, seq)] so
    same-time events pop in insertion order (determinism).  Values sit
    in slots that never move while the heap orders only unboxed keys,
    so sifting runs without a write barrier; a push allocates nothing
    once grown, and a popped value's slot is cleared at once, so the
    heap never keeps it reachable. *)

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
