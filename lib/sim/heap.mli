(** Binary min-heap for the event queue, keyed by [(time, seq)] so
    same-time events pop in insertion order (determinism).  Values sit
    in slots that never move while the heap orders only unboxed keys,
    so sifting runs without a write barrier; a push allocates nothing
    once grown, and a popped or removed value's slot is cleared at
    once, so the heap never keeps it reachable. *)

type 'a t

(** [dummy] fills empty value slots. *)
val create : dummy:'a -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** Names one pushed entry, for {!remove}.  It is a plain int, so a
    caller may keep it in an int field; every handle but {!no_handle}
    is non-negative. *)
type handle = int

(** A handle that names no entry. *)
val no_handle : handle

(** [push t ~time ~seq v] queues [v] and returns its handle.  Sequence
    numbers must be unique over the heap's lifetime for handles to stay
    unambiguous; an entry whose slot or [seq] is too large to pack
    (more than 2{^24} entries at once, or [seq >= 2{^38}]) gets
    {!no_handle}. *)
val push : 'a t -> time:float -> seq:int -> 'a -> handle

(** Time of the minimum entry; [Invalid_argument] when empty. *)
val min_time : 'a t -> float

(** Remove and return the minimum entry's value; [Invalid_argument]
    when empty. *)
val pop : 'a t -> 'a

(** [remove t h] takes the entry named by [h] out of the heap and
    clears its slot.  It does nothing when that entry has already been
    popped or removed, even if its slot now holds a later entry, and
    when [h] is {!no_handle}.  The order in which the remaining entries
    pop is unchanged. *)
val remove : 'a t -> handle -> unit
