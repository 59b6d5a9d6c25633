(** Deterministic discrete-event simulation engine.

    Simulated activities ("processes") are written in direct style and
    suspended/resumed with OCaml 5 effect handlers: a process calls
    {!wait} to let simulated time pass, or {!suspend} to block until
    another process wakes it.  One engine owns one event queue ordered
    by [(time, sequence)], making execution fully deterministic. *)

type t

exception Deadlock of string

(** Create an engine with its clock at 0. *)
val create : unit -> t

(** Current simulated time (microseconds by convention; see
    {!Timeunit}). *)
val now : t -> float

(** Schedule a plain callback [delay] after the current time.  The
    callback runs in engine context: it may spawn processes or call
    wakers, but must not itself perform {!wait}. *)
val at : t -> delay:float -> (unit -> unit) -> unit

(** Start a new process at the current time.  Spawning never preempts
    the spawner. *)
val spawn : t -> ?name:string -> (unit -> unit) -> unit

(** Run until the event queue drains, or until [until] if given
    (later events stay queued and the clock stops at [until]). *)
val run : ?until:float -> t -> unit

(** True when live processes remain but no event can ever wake them. *)
val deadlocked : t -> bool

val live_processes : t -> int
val spawned : t -> int

(** Timer events that ran after the waiter they were armed for had
    already been woken.  A won race cancels its timer, so only a timer
    due at the instant it was armed (which cannot be cancelled) is
    counted. *)
val dead_timers : t -> int

(** {1 Cancellable timers} *)

(** An int naming a queued timer; every timer but {!no_timer} is
    non-negative. *)
type timer = int

val no_timer : timer

(** [timer t ~delay f] runs [f] [delay] after the current time, like
    {!at}, unless cancelled first.  [f] returns [false] when the waiter
    it was armed for had already been woken, which {!dead_timers}
    counts.  A timer due now ([delay] 0, or a delay that rounds away
    against the clock) gets {!no_timer} and always runs. *)
val timer : t -> delay:float -> (unit -> bool) -> timer

(** [cancel t tm] removes [tm] from the event queue; a no-op on
    {!no_timer} and on a timer that has already run or been cancelled.
    The other events keep their [(time, seq)] order. *)
val cancel : t -> timer -> unit

(** {1 Operations usable only inside a process} *)

(** Let [delay] microseconds of simulated time pass. *)
val wait : float -> unit

(** Re-enter the scheduler without advancing time. *)
val yield : unit -> unit

(** [suspend register] blocks the calling process.  [register]
    receives a one-shot waker; calling it (from any other process or
    callback) schedules the blocked process to resume at the
    then-current time with the given value.  Extra waker calls are
    ignored. *)
val suspend : (('a -> unit) -> unit) -> 'a

(** [suspend_timeout t ~timeout register] is [Some v] if a waker fires
    before [timeout] elapses, [None] otherwise; the loser of the race
    is disarmed, and a waker that wins cancels the timer. *)
val suspend_timeout : t -> timeout:float -> (('a option -> unit) -> unit) -> 'a option
