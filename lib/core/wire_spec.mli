(** Declarative wire-format specifications (Narcissus-style, §5.1).

    Every CVD message is declared {e once} as a typed field spec —
    name, slot offset, read width, bounds, clamp/reject policy — and
    four artifacts are derived from that single source of truth:

    - the encoder ({!encode_fields}), which refuses to build a message
      the decoder would reject ({!Oversized}), so encode and decode
      agree about which messages exist;
    - the bounds-checked decoder ({!decode_fields}), raising
      {!Malformed} on any out-of-spec input;
    - the post-decode sanitizer ({!validate}), reproducing the
      hand-written [Proto.validate] field bounds and clamp policies;
    - a seeded random message generator ({!generate}) and a
      grammar-aware hostile mutator ({!hostile_field}) for the fuzz
      suites: valid skeleton, one field driven hostile.

    The DSL has two flavors: fixed-offset {e slot} layouts (the shared
    descriptor page: one field spec per wire word) and sequential
    {e stream} layouts ({!Stream}, for the versioned snapshot blobs).

    Hand-written offset code described each operation three times
    (encode, decode, validate) and the copies drifted; here the spec
    table is the only place a field's layout or bounds appear. *)

(** Raised by derived decoders on any malformed input.  [Proto]
    re-exports this exception as [Proto.Malformed]. *)
exception Malformed of string

(** Raised by derived encoders when a field value cannot be
    represented on the wire (e.g. an over-long [Ropen] path): the
    encoder rejects exactly what the decoder would, instead of
    corrupting adjacent slot words. *)
exception Oversized of { field : string; length : int; limit : int }

(** Sanitization bounds that come from live configuration rather than
    the wire format itself. *)
type limits = {
  max_transfer_bytes : int;
  poll_timeout_cap_us : float;
  grant_capacity : int;
}

(** Universal field value: the meeting point between a message variant
    and its wire representation. *)
type fval =
  | I of int
  | I64 of int64
  | F of float
  | S of string
  | B of bool

(** Integer read policy — the one place wire signedness is decided.
    [U32] reads 4 bytes and masks to a non-negative int (so [< 0]
    checks downstream are dead by construction); [U63] reads 8 bytes
    through [Int64.to_int], so a hostile top-bit-set u64 surfaces as a
    negative int and is caught by the derived sanitizer's range
    check. *)
type width = U32 | U63

(** Upper bounds in validation rules; [Lit] is wire-structural,
    the rest resolve against {!limits} at validation time. *)
type bound = Lit of int | Max_transfer | Max_mmap | Max_vfd | No_bound

type kind =
  | Int of width
  | Raw64  (** opaque 64-bit payload (ioctl arg), no integer policy *)
  | Flag  (** u32, non-zero = true *)
  | Timeout of { reject : string }
      (** float as raw IEEE-754 bits; NaN / negative / infinity are
          rejected at {e decode} with [Malformed reject] — the single
          consolidated poll-timeout policy *)
  | Str of { len_off : int; max : int; reject : string }
      (** u32 length at [len_off], bytes at the field offset; decode
          rejects length > [max] with [Malformed reject], encode
          rejects the same lengths with {!Oversized} *)

type field = { fname : string; off : int; kind : kind }

(** One ordered sanitization rule; rules run in declaration order and
    the first failure names its field. *)
type vcheck =
  | Vrange of { field : string; min : int; max : bound; detail : string }
  | Vwrap of { base : string; len : string; detail : string }
      (** [base < 0 || base > max_int - len]: address range wraps *)
  | Vtimeout of { field : string; detail : string }
      (** reject non-finite/negative, clamp values above
          [limits.poll_timeout_cap_us] to the cap *)
  | Vpath of { field : string; detail : string }  (** {!valid_path} *)

type violation = { field : string; detail : string }

(** A sanitizer rule with its fields resolved to positions. *)
type rule

(** The complete declaration of one message form, built by {!spec}. *)
type 'm spec = private {
  op : int;  (** wire opcode / tag *)
  name : string;
  takes_vfd : bool;  (** header vfd word is meaningful *)
  batchable : bool;  (** may ride in a multi-op descriptor *)
  fields : field list;  (** payload, in wire order, singleton offsets *)
  vchecks : vcheck list;  (** sanitizer rules, in evaluation order *)
  rules : rule list;  (** [vchecks], each field named resolved once *)
  build : vfd:int -> fval list -> 'm;
  parts : 'm -> int * fval list;  (** inverse of [build] *)
}

(** Declares a message form, resolving every field a rule names
    (["vfd"] is the header word) to its position in [fields] once, so
    {!validate} looks fields up by position.  [Invalid_argument] when
    a rule names a field [fields] does not declare. *)
val spec :
  op:int ->
  name:string ->
  takes_vfd:bool ->
  batchable:bool ->
  fields:field list ->
  vchecks:vcheck list ->
  build:(vfd:int -> fval list -> 'm) ->
  parts:('m -> int * fval list) ->
  'm spec

val max_mmap_bytes : int
val max_vfd : int
val eval_bound : limits -> bound -> int

(** Raw little-endian slot words: the byte-level primitives every
    derived slot codec (and [Proto]'s header shims) is built from.
    [r32] masks to non-negative; [r64] is [Int64.to_int] (u63 policy —
    a top-bit-set u64 wraps negative). *)
val w32 : bytes -> int -> int -> unit

val r32 : bytes -> int -> int
val w64 : bytes -> int -> int -> unit
val r64 : bytes -> int -> int

(** The devfs-path predicate shared by live sanitization and
    checkpoint restore. *)
val valid_path : string -> bool

(** [field_end f] is the slot offset just past [f]'s payload bytes. *)
val field_end : field -> int

(** Payload byte span of a batchable record: highest {!field_end}
    relative to [payload_base] (16 for requests, 8 for responses). *)
val payload_span : payload_base:int -> 'm spec -> int

(** Derived encoder: project [m] through [spec.parts] and write every
    field at [off + base].  Raises {!Oversized} per the field specs. *)
val encode_fields : 'm spec -> bytes -> base:int -> 'm -> unit

(** Derived decoder: read every field at [off + base] under its
    policy and rebuild through [spec.build].  [msg_prefix] is
    prepended to policy reject messages (["batch "] inside multi-op
    records, so message strings match the historical decoder). *)
val decode_fields :
  'm spec -> bytes -> base:int -> msg_prefix:string -> vfd:int -> 'm

(** Derived sanitizer: run [spec.vchecks] in order.  On success the
    message is returned unchanged unless a clamp rule fired (then it
    is rebuilt with the clamped fields).  On failure the violation
    field is [prefix ^ field] (["batch[i]."] inside batches). *)
val validate :
  'm spec -> limits -> prefix:string -> 'm -> ('m, violation) result

(** Derived generator: a random message that satisfies every decode
    policy and sanitizer rule under [limits] (a valid skeleton for the
    grammar-aware fuzzer, and the domain for round-trip properties). *)
val generate : 'm spec -> limits -> Sim.Rng.t -> 'm

(** Grammar-aware hostile mutation: overwrite one declared field (at
    [off + base]) in an encoded slot with a value chosen to violate
    that field's own policy — top-bit-set u64s into [U63] words, NaN /
    negative / infinity bits into [Timeout] words, over-limit lengths
    into [Str] length words. *)
val hostile_field : Sim.Rng.t -> bytes -> base:int -> field -> unit

(** Decode-branch / sanitizer coverage registry.  Derived decoders and
    sanitizers report every branch they take ({!hit}) when enabled;
    the fuzz suites use {!distinct} to compare how much of the message
    grammar a campaign reached.  Disabled (zero-cost beyond one load)
    by default. *)
module Coverage : sig
  val enable : unit -> unit
  val disable : unit -> unit
  val reset : unit -> unit
  val hit : string -> unit

  (** [hit_named ~prefix name] counts branch [prefix ^ name], building
      the label only when enabled. *)
  val hit_named : prefix:string -> string -> unit

  val distinct : unit -> int

  (** [(branch, hits)] pairs, sorted by branch label. *)
  val snapshot : unit -> (string * int) list
end

(** Sequential (cursor-based) wire streams: the snapshot blob flavor
    of the DSL.  A ['a t] declares layout once; {!write} and {!read}
    are the derived encoder/decoder.  Decode-side checks are supplied
    per field and may raise any exception (snapshot keeps its own
    [Malformed]); truncation raises {!Malformed}. *)
module Stream : sig
  type 'a t

  (** 4-byte little-endian, masked non-negative on read. *)
  val u32 : int t

  (** [u32c check]: as {!u32}, running [check] on every decoded
      value. *)
  val u32c : (int -> unit) -> int t

  (** 8-byte little-endian through [Int64.to_int] (top-bit-set wraps
      negative; pair with a [check] that rejects it). *)
  val i64 : int t

  val i64c : (int -> unit) -> int t
  val boolean : bool t

  (** u32 length-prefixed bytes; [check] sees the length before any
      bytes are read. *)
  val strc : (int -> unit) -> string t

  (** u32 count-prefixed repetition; [check] sees the count before any
      element is read. *)
  val listc : (int -> unit) -> 'a t -> 'a list t

  val pair : 'a t -> 'b t -> ('a * 'b) t

  (** [conv dec enc t] maps the raw shape to a richer type; [dec] may
      raise (tag dispatch, cross-field checks). *)
  val conv : ('a -> 'b) -> ('b -> 'a) -> 'a t -> 'b t

  val write : Buffer.t -> 'a t -> 'a -> unit

  type cursor = { buf : string; mutable pos : int }

  val cursor : string -> cursor
  val read : cursor -> 'a t -> 'a
end
