(* netmap_hybrid: one guest transmitting 64 B packets through the
   netmap NIC under Config.hybrid, batch 8, one poll per batch — the
   loop of Workloads.Netmap_pktgen.run, split into set-up (open, REGIF,
   mmap) and rounds. *)

open Harness
module Nm = Devices.Netmap_drv

(* The Figure 2 experiment's packet count; batch 8 is where hybrid
   notification reaches line rate. *)
let packets_per_round = 20_000
let batch = 8
let pkt_size = 64

type conn = { task : Oskit.Defs.task; fd : int; gva : int; num_slots : int }

let build p ~config ~seed:_ ~ready =
  let m, nm, _ = build_machine p ~config ~attach:M.attach_netmap ~guests:[ ("guest1", None) ] () in
  let env = R.of_machine ~label:"netmap_hybrid" m in
  let engine = R.engine env and kernel = env.R.kernel in
  let read_hdr c off =
    Int32.to_int (Bytes.get_int32_le (Oskit.Vfs.user_read kernel c.task ~gva:(c.gva + off) ~len:4) 0)
  in
  let write_hdr c off v =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    Oskit.Vfs.user_write kernel c.task ~gva:(c.gva + off) b
  in
  let slot_bytes = Bytes.create 4 in
  Bytes.set_int32_le slot_bytes 0 (Int32.of_int pkt_size);
  let cur = ref 0 and delivered = ref 0 and mpps = ref nan in
  let round c =
    let tx_base = Nm.tx_packets nm in
    let sent = ref 0 in
    let t0 = Sim.Engine.now engine in
    while !sent < packets_per_round do
      let space = (read_hdr c Nm.hdr_tail - !cur - 1 + c.num_slots) mod c.num_slots in
      let n = min (min batch space) (packets_per_round - !sent) in
      if n > 0 then begin
        for _ = 1 to n do
          Oskit.Vfs.user_write kernel c.task
            ~gva:(c.gva + Nm.slots_off + (!cur * Nm.slot_bytes))
            slot_bytes;
          cur := (!cur + 1) mod c.num_slots
        done;
        Sim.Engine.wait (float_of_int n *. Workloads.Netmap_pktgen.per_packet_fill_us);
        write_hdr c Nm.hdr_cur !cur;
        sent := !sent + n
      end;
      (* one poll per batch (txsync + wait for space), or one to wait
         for space when the ring is full *)
      match Probe.poll p env c.task c.fd ~want_out:true with Ok _ | Error _ -> ()
    done;
    (* drain the ring *)
    while Nm.tx_packets nm - tx_base < packets_per_round do
      Sim.Engine.wait 100.
    done;
    let tx = Nm.tx_packets nm - tx_base in
    Probe.check p
      ~what:(Printf.sprintf "NIC sent %d of %d packets" tx packets_per_round)
      (tx = packets_per_round);
    delivered := !delivered + tx;
    mpps := float_of_int packets_per_round /. ((Sim.Engine.now engine -. t0) /. 1_000_000.) /. 1e6
  in
  let conn =
    Probe.in_engine p engine (fun () ->
        let task = R.spawn_app env ~name:"pktgen" in
        let fd = Probe.required ~what:"open /dev/netmap" (Probe.openf p env task "/dev/netmap") in
        let arg = Oskit.Task.alloc_buf task 16 in
        ignore
          (Probe.required ~what:"NIOCREGIF"
             (Probe.ioctl p env task fd ~cmd:Nm.nioc_regif ~arg:(Int64.of_int arg)));
        let num_slots = Oskit.Task.read_u32 task ~gva:(arg + 4) in
        let page = Memory.Addr.page_size in
        let ring_len = Memory.Addr.align_up (((1 + (num_slots * 2048 / page)) * page) + page) in
        let gva = Probe.required ~what:"mmap rings" (Probe.mmap p env task fd ~len:ring_len ~pgoff:0) in
        (* fault the header page in before timing *)
        ignore (Oskit.Vfs.user_read kernel task ~gva ~len:16 : bytes);
        let c = { task; fd; gva; num_slots } in
        ready ();
        round c;
        c)
  in
  {
    machine = m;
    round = (fun () -> Sim.Engine.spawn engine (fun () -> round conn));
    result = (fun () -> Sim_value !mpps);
    completed = (fun () -> !delivered);
  }

let workload =
  {
    name = "netmap_hybrid";
    unit_name = "packet";
    units_per_round = packets_per_round;
    reps = 15;
    config = Paradice.Config.hybrid;
    build;
    reference =
      Some
        ( "Netmap_pktgen.run under Config.hybrid, Mpps",
          fun () ->
            let _, env =
              Baselines.Setup.make ~devices:[ Baselines.Setup.Netmap ]
                (Baselines.Setup.Paradice Paradice.Config.hybrid)
            in
            Sim_value
              (Workloads.Netmap_pktgen.run env ~packets:packets_per_round ~batch ~pkt_size ())
                .Workloads.Netmap_pktgen.rate_mpps );
    paper = "1.488 Mpps, line rate for 64 B packets on 1 GbE";
  }
