(** netmap over an e1000-like gigabit NIC (§6.1.2, Figure 2).

    The netmap data path: TX ring and packet buffers live in driver
    memory, mmap'd straight into the application; a [poll] on the
    device file runs txsync, which hands new slots to the NIC.  The
    NIC drains the ring at wire speed (1 Gb/s -> 1.488 Mpps for
    64-byte frames).  The application pays one file operation per
    batch, which is exactly the cost Paradice's forwarding amortises
    with larger batches.

    Ring layout (shared memory the application maps):
    {v
      page 0:        header { num_slots u32; head u32; cur u32; tail u32 }
                     slots[num_slots] { len u32; buf_idx u32 }
      pages 1..N:    packet buffers, [buf_size] bytes each
    v}
    [cur] is written by the application (first unfilled slot); [tail]
    by the NIC (first slot it has not transmitted).  Free space is
    everything from [cur] to [tail-1] modulo ring size. *)

open Oskit

let nioc_regif = Ioctl_num.iowr ~typ:'N' ~nr:1 ~size:16 (* { ringid; num_slots out; buf_size out } *)
let nioc_txsync = Ioctl_num.io ~typ:'N' ~nr:2

let hdr_num_slots = 0
let hdr_head = 4
let hdr_cur = 8
let hdr_tail = 12
let slots_off = 64
let slot_bytes = 8

type t = {
  kernel : Kernel.t;
  iommu : Memory.Iommu.t;
  num_slots : int;
  buf_size : int;
  ring_pages : int array; (* driver gpas: header page + buffer pages *)
  ring_dma : int; (* DMA base where the NIC sees the same pages *)
  gbps : float;
  kick : unit Sim.Mailbox.t; (* txsync doorbell *)
  wq : Wait_queue.t; (* pollers waiting for ring space *)
  mutable hw_tail : int;
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable started : bool;
  dma_scratch : Bytes.t; (* where the NIC's header DMA lands *)
}

let bufs_per_page = Memory.Addr.page_size / 2048

let create kernel ~iommu ?(num_slots = 1024) ?(buf_size = 2048) ?(gbps = 1.) () =
  let header_pages = 1 in
  let buffer_pages = (num_slots + bufs_per_page - 1) / bufs_per_page in
  let vm = Kernel.vm kernel in
  let pages =
    Array.init (header_pages + buffer_pages) (fun _ -> Hypervisor.Vm.alloc_gpa_page vm)
  in
  (* The NIC DMAs the same pages: map them in its IOMMU domain. *)
  let ring_dma = 0x2000_0000 in
  Array.iteri
    (fun i gpa ->
      match Memory.Ept.lookup (Hypervisor.Vm.ept vm) ~gpa with
      | Some (spa, _) ->
          Memory.Iommu.map iommu
            ~dma:(ring_dma + (i * Memory.Addr.page_size))
            ~spa ~perms:Memory.Perm.rw ~region:None
      | None -> assert false)
    pages;
  let t =
    {
      kernel;
      iommu;
      num_slots;
      buf_size;
      ring_pages = pages;
      ring_dma;
      gbps;
      kick = Sim.Mailbox.create (Kernel.engine kernel);
      wq = Wait_queue.create (Kernel.engine kernel);
      hw_tail = 0;
      tx_packets = 0;
      tx_bytes = 0;
      started = false;
      dma_scratch = Bytes.create 16;
    }
  in
  t

let tx_packets t = t.tx_packets
let tx_bytes t = t.tx_bytes

(* Driver-side access to the ring header/slots through its own pages. *)
let hdr_read t off = Hypervisor.Vm.read_gpa_u32 (Kernel.vm t.kernel) ~gpa:(t.ring_pages.(0) + off)

let hdr_write t off v =
  Hypervisor.Vm.write_gpa_u32 (Kernel.vm t.kernel) ~gpa:(t.ring_pages.(0) + off) v

let slot_addr slot = slots_off + (slot * slot_bytes)

let buf_dma t slot =
  let page = 1 + (slot / bufs_per_page) in
  let off = slot mod bufs_per_page * t.buf_size in
  t.ring_dma + (page * Memory.Addr.page_size) + off

(** Wire time for one frame: bits / rate, plus 20 bytes of
    preamble/IFG, matching the 1.488 Mpps line rate at 64 bytes. *)
let wire_time_us t ~len = float_of_int ((len + 20) * 8) /. (t.gbps *. 1000.)

(* The NIC: woken by txsync, transmits [tail..cur) at wire speed. *)
let start t =
  if not t.started then begin
    t.started <- true;
    hdr_write t hdr_num_slots t.num_slots;
    hdr_write t hdr_cur 0;
    hdr_write t hdr_tail 0;
    let eng = Kernel.engine t.kernel in
    Sim.Engine.spawn eng ~name:"e1000-tx" (fun () ->
        let rec loop () =
          let () = Sim.Mailbox.recv t.kick in
          (* [cur] lives in the shared ring header the application
             mmaps, so it is attacker-controlled: a value outside
             [0, num_slots) would never match the mod-num_slots
             [hw_tail] walk below and the NIC would transmit forever.
             An invalid cur invalidates the sync — skip the pass. *)
          let cur = hdr_read t hdr_cur in
          let cur = if cur >= t.num_slots then t.hw_tail else cur in
          while t.hw_tail <> cur do
            let slot = t.hw_tail in
            (* unsigned: a length with bit 31 set is out of range too *)
            let len = hdr_read t (slot_addr slot) in
            let len = if len <= 0 || len > t.buf_size then 60 else len in
            (* DMA the frame header: permissions checked by the IOMMU *)
            (try
               Memory.Phys_mem.read_into
                 (Hypervisor.Vm.phys (Kernel.vm t.kernel))
                 ~spa:
                   (Memory.Iommu.translate t.iommu ~dma:(buf_dma t slot)
                      ~access:Memory.Perm.Read)
                 ~dst:t.dma_scratch ~dst_off:0 ~len:(min len 16)
             with Memory.Fault.Iommu_fault _ -> ());
            Sim.Engine.wait (wire_time_us t ~len);
            t.tx_packets <- t.tx_packets + 1;
            t.tx_bytes <- t.tx_bytes + len;
            t.hw_tail <- (t.hw_tail + 1) mod t.num_slots;
            hdr_write t hdr_tail t.hw_tail;
            Wait_queue.wake_all t.wq
          done;
          loop ()
        in
        loop ())
  end

(* txsync: publish the application's [cur] to the hardware. *)
let txsync t = Sim.Mailbox.send t.kick ()

let free_slots t =
  let cur = hdr_read t hdr_cur and tail = hdr_read t hdr_tail in
  (tail - cur - 1 + t.num_slots) mod t.num_slots

(** Slots published by the application but not yet transmitted —
    [cur..tail) modulo ring size.  Sizes a batched txsync: issuing one
    multi-op descriptor per [pending_tx] window amortises the doorbell
    the same way netmap amortises the system call. *)
let pending_tx t =
  let cur = hdr_read t hdr_cur and tail = hdr_read t hdr_tail in
  (cur - tail + t.num_slots) mod t.num_slots

let ring_slots t = t.num_slots

let file_ops t =
  {
    Defs.default_ops with
    Defs.fop_kinds =
      [ Os_flavor.Open; Os_flavor.Release; Os_flavor.Ioctl; Os_flavor.Mmap;
        Os_flavor.Fault; Os_flavor.Poll ];
    fop_ioctl =
      (fun task _file ~cmd ~arg ->
        if cmd = nioc_regif then begin
          let uaddr = Int64.to_int arg in
          let data = Uaccess.copy_from_user task ~uaddr ~len:16 in
          (* there is exactly one TX ring: any other ringid is a
             request for memory we do not have *)
          let ringid = Int32.to_int (Bytes.get_int32_le data 0) land 0xffffffff in
          if ringid <> 0 then Errno.fail Errno.EINVAL "regif: bad ringid";
          Bytes.set_int32_le data 4 (Int32.of_int t.num_slots);
          Bytes.set_int32_le data 8 (Int32.of_int t.buf_size);
          Uaccess.copy_to_user task ~uaddr data;
          0
        end
        else if cmd = nioc_txsync then begin
          txsync t;
          0
        end
        else Errno.fail Errno.ENOTTY "unknown netmap ioctl");
    fop_mmap = (fun _ _ _ -> ());
    fop_fault =
      (fun task _file vma ~gva ->
        let page = (gva - vma.Defs.vma_start) / Memory.Addr.page_size in
        if page < 0 || page >= Array.length t.ring_pages then
          Errno.fail Errno.EFAULT "fault beyond netmap ring";
        Uaccess.insert_pfn task ~gva ~page_gpa:t.ring_pages.(page)
          ~perms:Memory.Perm.rw);
    fop_poll =
      (fun _task _file ~want_in:_ ~want_out ->
        (* netmap semantics: poll(POLLOUT) performs txsync and reports
           whether the ring has space; a reader not asking for POLLOUT
           must not trigger a transmit pass *)
        if want_out then txsync t;
        { Defs.pollin = false; pollout = free_slots t > 0; poll_wq = Some t.wq });
  }

(** Only one process may own the netmap rings (§5.1). *)
let register t ~path =
  let dev =
    Defs.make_device ~path ~cls:"net" ~driver:"netmap/e1000e" ~exclusive:true
      (file_ops t)
  in
  Devfs.register (Kernel.devfs t.kernel) dev;
  dev

let ring_bytes t = Array.length t.ring_pages * Memory.Addr.page_size
