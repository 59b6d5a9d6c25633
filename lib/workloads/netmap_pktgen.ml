(** The netmap packet generator (Figure 2, §6.1.2).

    Transmits fixed-size packets as fast as possible, issuing one poll
    file operation per batch; larger batches amortise the forwarding
    cost, which is exactly the effect Figure 2 plots. *)

open Runner

let per_packet_fill_us = 0.06 (* netmap's ~60 ns per-slot CPU work *)

type result = { rate_mpps : float; packets : int; elapsed_s : float }

let run env ~packets ~batch ?(pkt_size = 64) () =
  run_to_completion env (fun () ->
      let task = spawn_app env ~name:"pktgen" in
      let fd = openf env task "/dev/netmap" in
      (* register and map the rings *)
      let arg = Oskit.Task.alloc_buf task 16 in
      let (_ : int) =
        ioctl env task fd ~cmd:Devices.Netmap_drv.nioc_regif ~arg:(Int64.of_int arg)
      in
      let num_slots = u32 task ~gva:(arg + 4) in
      let ring_len = Memory.Addr.align_up ((1 + ((num_slots * 2048) / Memory.Addr.page_size)) * Memory.Addr.page_size + Memory.Addr.page_size) in
      let gva = mmap env task fd ~len:ring_len ~pgoff:0 in
      (* fault the header page in before timing *)
      let (_ : bytes) = Oskit.Vfs.user_read env.kernel task ~gva ~len:16 in
      let read_hdr off =
        Int32.to_int
          (Bytes.get_int32_le (Oskit.Vfs.user_read env.kernel task ~gva:(gva + off) ~len:4) 0)
      in
      let write_hdr off v =
        let b = Bytes.create 4 in
        Bytes.set_int32_le b 0 (Int32.of_int v);
        Oskit.Vfs.user_write env.kernel task ~gva:(gva + off) b
      in
      let cur = ref 0 and sent = ref 0 in
      let free_space () =
        let tail = read_hdr Devices.Netmap_drv.hdr_tail in
        (tail - !cur - 1 + num_slots) mod num_slots
      in
      let slot_bytes = Bytes.create 4 in
      Bytes.set_int32_le slot_bytes 0 (Int32.of_int pkt_size);
      let nm =
        match env.machine.Paradice.Machine.netmap with
        | Some nm -> nm
        | None -> failwith "netmap not attached"
      in
      let tx_base = Devices.Netmap_drv.tx_packets nm in
      let t0 = now_us env in
      while !sent < packets do
        let space = free_space () in
        let n = min (min batch space) (packets - !sent) in
        if n <= 0 then begin
          (* ring full: one poll file operation waits for space *)
          let (_ : Oskit.Defs.poll_result) =
            poll env task fd ~want_in:false ~want_out:true ~timeout:1_000_000.
          in
          ()
        end
        else begin
          for _ = 1 to n do
            let slot_gva =
              gva + Devices.Netmap_drv.slots_off + (!cur * Devices.Netmap_drv.slot_bytes)
            in
            Oskit.Vfs.user_write env.kernel task ~gva:slot_gva slot_bytes;
            cur := (!cur + 1) mod num_slots
          done;
          Sim.Engine.wait (float_of_int n *. per_packet_fill_us);
          write_hdr Devices.Netmap_drv.hdr_cur !cur;
          sent := !sent + n;
          (* one poll per batch: txsync + wait for space (the pacing
             syscall of the paper's generator) *)
          let (_ : Oskit.Defs.poll_result) =
            poll env task fd ~want_in:false ~want_out:true ~timeout:1_000_000.
          in
          ()
        end
      done;
      (* drain the ring *)
      while Devices.Netmap_drv.tx_packets nm - tx_base < packets do
        Sim.Engine.wait 100.
      done;
      let elapsed_s = (now_us env -. t0) /. 1_000_000. in
      close env task fd;
      {
        rate_mpps = float_of_int packets /. elapsed_s /. 1e6;
        packets;
        elapsed_s;
      })

(** The multi-op descriptor variant (Paradice modes only): instead of
    one forwarded poll per batch, accumulate up to [ops_per_desc]
    txsync ioctls and forward them in a single {!Paradice.Proto.Rbatch}
    ring descriptor — the two notification legs now amortise over
    [ops_per_desc * batch] packets instead of [batch]. *)
let run_batched env ~packets ~batch ?(ops_per_desc = 16) ?(pkt_size = 64) () =
  let ops_per_desc = min (max 1 ops_per_desc) Paradice.Proto.max_batch_ops in
  let frontend =
    match Paradice.Machine.guests env.machine with
    | g :: _ -> g.Paradice.Machine.frontend
    | [] -> failwith "batched pktgen needs a Paradice guest"
  in
  run_to_completion env (fun () ->
      let task = spawn_app env ~name:"pktgen-batch" in
      let fd = openf env task "/dev/netmap" in
      let arg = Oskit.Task.alloc_buf task 16 in
      let (_ : int) =
        ioctl env task fd ~cmd:Devices.Netmap_drv.nioc_regif ~arg:(Int64.of_int arg)
      in
      let num_slots = u32 task ~gva:(arg + 4) in
      let ring_len = Memory.Addr.align_up ((1 + ((num_slots * 2048) / Memory.Addr.page_size)) * Memory.Addr.page_size + Memory.Addr.page_size) in
      let gva = mmap env task fd ~len:ring_len ~pgoff:0 in
      let (_ : bytes) = Oskit.Vfs.user_read env.kernel task ~gva ~len:16 in
      let file =
        match Memory.Int_tbl.find_opt task.Oskit.Defs.fds fd with
        | Some f -> f
        | None -> failwith "batched pktgen: fd not open"
      in
      let read_hdr off =
        Int32.to_int
          (Bytes.get_int32_le (Oskit.Vfs.user_read env.kernel task ~gva:(gva + off) ~len:4) 0)
      in
      let write_hdr off v =
        let b = Bytes.create 4 in
        Bytes.set_int32_le b 0 (Int32.of_int v);
        Oskit.Vfs.user_write env.kernel task ~gva:(gva + off) b
      in
      let cur = ref 0 and sent = ref 0 in
      let free_space () =
        let tail = read_hdr Devices.Netmap_drv.hdr_tail in
        (tail - !cur - 1 + num_slots) mod num_slots
      in
      let slot_bytes = Bytes.create 4 in
      Bytes.set_int32_le slot_bytes 0 (Int32.of_int pkt_size);
      let nm =
        match env.machine.Paradice.Machine.netmap with
        | Some nm -> nm
        | None -> failwith "netmap not attached"
      in
      let tx_base = Devices.Netmap_drv.tx_packets nm in
      (* txsyncs owed to the NIC but not yet forwarded *)
      let pending_syncs = ref 0 in
      let flush () =
        if !pending_syncs > 0 then begin
          let cmds =
            List.init !pending_syncs (fun _ ->
                (Devices.Netmap_drv.nioc_txsync, 0L))
          in
          let (_ : int list) =
            Paradice.Cvd_front.batch_ioctl frontend task file cmds
          in
          pending_syncs := 0
        end
      in
      let t0 = now_us env in
      while !sent < packets do
        let space = free_space () in
        let n = min (min batch space) (packets - !sent) in
        if n <= 0 then begin
          (* ring full: the NIC must first see everything we published *)
          flush ();
          let (_ : Oskit.Defs.poll_result) =
            poll env task fd ~want_in:false ~want_out:true ~timeout:1_000_000.
          in
          ()
        end
        else begin
          for _ = 1 to n do
            let slot_gva =
              gva + Devices.Netmap_drv.slots_off + (!cur * Devices.Netmap_drv.slot_bytes)
            in
            Oskit.Vfs.user_write env.kernel task ~gva:slot_gva slot_bytes;
            cur := (!cur + 1) mod num_slots
          done;
          Sim.Engine.wait (float_of_int n *. per_packet_fill_us);
          write_hdr Devices.Netmap_drv.hdr_cur !cur;
          sent := !sent + n;
          incr pending_syncs;
          if !pending_syncs >= ops_per_desc then flush ()
        end
      done;
      flush ();
      while Devices.Netmap_drv.tx_packets nm - tx_base < packets do
        Sim.Engine.wait 100.
      done;
      let elapsed_s = (now_us env -. t0) /. 1_000_000. in
      close env task fd;
      {
        rate_mpps = float_of_int packets /. elapsed_s /. 1e6;
        packets;
        elapsed_s;
      })
