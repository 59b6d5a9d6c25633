(** netmap over an e1000-like NIC (§6.1.2, Figure 2): TX ring and
    buffers in one shared region that the driver, the NIC's DMA and
    the application's mmap all reach, poll-driven txsync, wire-speed
    drain (1.488 Mpps at 64 B on 1 GbE). *)

val nioc_regif : int
val nioc_txsync : int
val hdr_num_slots : int
val hdr_head : int
val hdr_cur : int
val hdr_tail : int
val slots_off : int
val slot_bytes : int

type t

val create :
  Oskit.Kernel.t ->
  iommu:Memory.Iommu.t ->
  ?num_slots:int ->
  ?buf_size:int ->
  ?gbps:float ->
  unit ->
  t

val tx_packets : t -> int
val tx_bytes : t -> int
val wire_time_us : t -> len:int -> float

(** Start the NIC TX engine (idles until kicked). *)
val start : t -> unit

val txsync : t -> unit
val free_slots : t -> int

val ring_slots : t -> int
val file_ops : t -> Oskit.Defs.file_ops

(** Registers single-open (§5.1). *)
val register : t -> path:string -> Oskit.Defs.device

(** Bytes the application maps: the header pages (sized from
    [num_slots]) and the buffer pages. *)
val ring_bytes : t -> int

(** Offset of slot [i]'s packet buffer from the start of the ring. *)
val buf_offset : t -> int -> int

(** The 16 bytes where the NIC's header DMA for the last packet it sent
    landed (a frame shorter than 16 bytes leaves the tail of the one
    before). *)
val last_tx_header : t -> bytes
