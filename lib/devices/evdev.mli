(** Input devices: the evdev event interface plus mouse/keyboard
    hardware models, with the §6.1.5 latency probe built in. *)

type event = { time_us : float; ev_type : int; code : int; value : int }

val ev_syn : int
val ev_key : int
val ev_rel : int
val rel_x : int
val rel_y : int
val event_bytes : int
val encode_event : event -> bytes
val decode_event : bytes -> int -> event

(** The evdev ioctl surface: identity, autorepeat get/set, exclusive
    grab (value argument: nonzero grabs, zero releases). *)

val eviocgid : int
val eviocgrep : int
val eviocsrep : int
val eviocgrab : int
val rep_delay_max : int
val rep_period_max : int
val id_bustype : int
val id_vendor : int
val id_product : int
val id_version : int

type t

(** [delivery_latency_us]: USB + input-core path between the physical
    event and the evdev queue (~38 us natively, +16 under device
    assignment — §6.1.5). *)
val create : ?delivery_latency_us:float -> Oskit.Kernel.t -> name:string -> t

(** Per-event latency from physical report to the read that collected
    it reaching the driver — the paper's §6.1.5 metric. *)
val read_latencies : t -> float list

(** Events lost to queue overflow. *)
val dropped_events : t -> int

(** Current autorepeat [(delay_ms, period_ms)]. *)
val autorepeat : t -> int * int

(** Hardware-side event injection. *)
val inject : t -> event -> unit

val file_ops : t -> Oskit.Defs.file_ops
val register : t -> path:string -> Oskit.Defs.device

(** Hardware models: a mouse emitting [moves] relative motions at
    [rate_hz]; a keyboard typing [keys] (press+release). *)
val start_mouse : t -> rate_hz:float -> moves:int -> unit

val start_keyboard : t -> rate_hz:float -> keys:int list -> unit
