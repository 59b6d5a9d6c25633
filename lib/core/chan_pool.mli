(** A pool of CVD channels for one guest: a few parallel backend
    workers (so a blocking read does not stall other device files),
    each serving a descriptor ring, under the per-guest operation cap
    of §5.1.  Operations are routed to the least-loaded ring. *)

type t

exception Busy
(** The guest has [max_queued_ops] operations outstanding already. *)

val create : Channel.t array -> cap:int -> t

(** Operations currently in flight or waiting for a ring slot. *)
val pending : t -> int

(** The per-guest operation cap ({!Busy} past it). *)
val cap : t -> int

(** The designated channel for backend-to-frontend notifications. *)
val notify_channel : t -> Channel.t

val iter_channels : t -> (Channel.t -> unit) -> unit

(** Live poll-window switch applied to every channel (see
    {!Channel.set_poll_window}). *)
val set_poll_window : t -> float -> unit

(** Retire every channel (planned handoff — see {!Channel.retire}). *)
val retire : t -> unit

(** Every ring drained on both sides. *)
val quiescent : t -> bool

(** One request/response exchange over the least-loaded channel's
    ring (see {!Channel.rpc}): [encode] fills the request descriptor
    before each publish and [decode] turns the response into the
    result.  [timeout_us] overrides the configured RPC deadline.  A
    caller wanting the raw response passes [~decode:Bytes.copy]. *)
val rpc :
  ?timeout_us:float ->
  t ->
  trace:int ->
  encode:(bytes -> unit) ->
  decode:(bytes -> 'a) ->
  'a

type stats = {
  rpcs : int;
  legs : int;
  cold_legs : int;
  rejected_busy : int;
  timeouts : int;
  retries : int;
  stale_responses : int;
  protocol_violations : int;  (** responds on slots not in service *)
  req_poll_pickups : int;  (** request handoffs at polling cost *)
  resp_poll_deliveries : int;  (** response handoffs at polling cost *)
}

val stats : t -> stats
