(* gpu_frames: one guest replaying Workloads.Gfx's Nexuiz 1280x1024
   frame over the radeon GPU with interrupts.  The argument buffers are
   allocated once per client, as they would sit on a libdrm caller's
   stack: Workloads.Gem allocates and frees them on every call, and
   Allocator.alloc_range never reuses freed VA, so a Gem client runs
   out of its task's VA region after a few thousand frames (README.md,
   "Known defect"). *)

open Harness
module Rio = Devices.Radeon_ioctl

let profile = Workloads.Gfx.nexuiz
let width = 1280
let height = 1024

(* The Figure 4 experiment's frame count (bench/experiments.ml). *)
let frames_per_round = 40

let put_u32 task gva v = Oskit.Task.write_u32 task ~gva v
let put_u64 task gva v = Oskit.Task.write_u64 task ~gva (Int64.of_int v)
let get_u32 task gva = Oskit.Task.read_u32 task ~gva
let get_u64 task gva = Int64.to_int (Oskit.Task.read_u64 task ~gva)

(* A client's argument buffers, allocated once. *)
type bufs = {
  info_val : int;
  info_arg : int;
  ib_buf : int;
  reloc_buf : int;
  hdr_ib : int;
  hdr_re : int;
  ptrs : int;
  cs_arg : int;
  idle_arg : int;
}

let build p ~config ~seed:_ ~ready =
  let m, gpu, _ =
    build_machine p ~config
      ~attach:(fun m -> M.attach_gpu m ())
      ~guests:[ ("guest1", None) ] ()
  in
  let env = R.of_machine ~label:"gpu_frames" m in
  let engine = R.engine env in
  let ioctl task fd ~cmd arg = Probe.ioctl p env task fd ~cmd ~arg:(Int64.of_int arg) in
  let frames = ref 0 and fence = ref 0 and fps = ref nan in
  let frame task fd ~tex_va ~texture b =
    let ok = ref true in
    let bad what =
      ok := false;
      Probe.bad_op p what
    in
    for _ = 1 to profile.Workloads.Gfx.state_ioctls_per_frame do
      put_u32 task (b.info_arg + Rio.info_off_request) Rio.info_accel_working;
      put_u64 task (b.info_arg + Rio.info_off_value_ptr) b.info_val;
      match ioctl task fd ~cmd:Rio.info b.info_arg with
      | Ok 0 -> if get_u64 task b.info_val <> 1 then bad "INFO accel_working did not read 1"
      | Ok rc -> bad (Printf.sprintf "INFO returned %d" rc)
      | Error _ -> ok := false
    done;
    for i = 1 to profile.Workloads.Gfx.texture_uploads_per_frame do
      Oskit.Vfs.user_write env.R.kernel task ~gva:(tex_va + (i * 64)) (Bytes.make 64 '\001')
    done;
    (* the nested-chunk CS, filled in as Workloads.Gem.submit_cs does *)
    let ib = [ Rio.pkt_draw; profile.Workloads.Gfx.vertices; width; height; 1; 0 ] in
    List.iteri (fun i w -> put_u32 task (b.ib_buf + (i * 4)) w) ib;
    put_u32 task b.reloc_buf texture;
    put_u32 task (b.hdr_ib + Rio.chunk_off_id) Rio.chunk_id_ib;
    put_u32 task (b.hdr_ib + Rio.chunk_off_length_dw) (List.length ib);
    put_u64 task (b.hdr_ib + Rio.chunk_off_data) b.ib_buf;
    put_u32 task (b.hdr_re + Rio.chunk_off_id) Rio.chunk_id_relocs;
    put_u32 task (b.hdr_re + Rio.chunk_off_length_dw) 1;
    put_u64 task (b.hdr_re + Rio.chunk_off_data) b.reloc_buf;
    put_u64 task b.ptrs b.hdr_ib;
    put_u64 task (b.ptrs + 8) b.hdr_re;
    put_u32 task (b.cs_arg + Rio.cs_off_num_chunks) 2;
    put_u64 task (b.cs_arg + Rio.cs_off_chunks_ptr) b.ptrs;
    (match ioctl task fd ~cmd:Rio.cs b.cs_arg with
    | Ok 0 ->
        let f = get_u64 task (b.cs_arg + Rio.cs_off_fence) in
        if f <= !fence then bad (Printf.sprintf "CS fence %d did not advance past %d" f !fence);
        fence := f
    | Ok rc -> bad (Printf.sprintf "CS returned %d" rc)
    | Error _ -> ok := false);
    put_u64 task b.idle_arg 0;
    (match ioctl task fd ~cmd:Rio.gem_wait_idle b.idle_arg with
    | Ok 0 ->
        if Devices.Radeon_drv.completed_fence gpu.M.radeon < !fence then
          bad "wait_idle returned before the frame's fence retired"
    | Ok rc -> bad (Printf.sprintf "GEM_WAIT_IDLE returned %d" rc)
    | Error _ -> ok := false);
    !ok
  in
  let round frame =
    let t0 = Sim.Engine.now engine in
    for _ = 1 to frames_per_round do
      if frame () then incr frames
    done;
    let elapsed = Sim.Engine.now engine -. t0 in
    fps := float_of_int frames_per_round /. (elapsed /. 1_000_000.)
  in
  let client =
    Probe.in_engine p engine (fun () ->
        let task = R.spawn_app env ~name:("gfx-" ^ profile.Workloads.Gfx.name) in
        let fd = Probe.required ~what:"open /dev/dri/card0" (Probe.openf p env task "/dev/dri/card0") in
        let alloc = Oskit.Task.alloc_buf task in
        let arg = alloc Rio.gem_create_size in
        put_u64 task (arg + Rio.gem_create_off_size) (256 * 1024);
        put_u32 task (arg + Rio.gem_create_off_domain) Rio.domain_gtt;
        ignore (Probe.required ~what:"GEM_CREATE" (ioctl task fd ~cmd:Rio.gem_create arg));
        let texture = get_u32 task (arg + Rio.gem_create_off_handle) in
        put_u32 task (arg + Rio.gem_mmap_off_handle) texture;
        ignore (Probe.required ~what:"GEM_MMAP" (ioctl task fd ~cmd:Rio.gem_mmap arg));
        let cookie = get_u64 task (arg + Rio.gem_mmap_off_addr) in
        let tex_va =
          Probe.required ~what:"mmap texture"
            (Probe.mmap p env task fd ~len:(256 * 1024) ~pgoff:(cookie / Memory.Addr.page_size))
        in
        let b =
          {
            info_val = alloc 8;
            info_arg = alloc Rio.info_size;
            ib_buf = alloc 24;
            reloc_buf = alloc 4;
            hdr_ib = alloc Rio.cs_chunk_header_size;
            hdr_re = alloc Rio.cs_chunk_header_size;
            ptrs = alloc 16;
            cs_arg = alloc Rio.cs_size;
            idle_arg = alloc Rio.gem_wait_idle_size;
          }
        in
        let frame () = frame task fd ~tex_va ~texture b in
        (* warm-up frame: mappings faulted in, caches hot *)
        if not (frame ()) then failwith "warm-up frame failed";
        ready ();
        round frame;
        frame)
  in
  {
    machine = m;
    round = (fun () -> Sim.Engine.spawn engine (fun () -> round client));
    result = (fun () -> Sim_value !fps);
    completed = (fun () -> !frames);
  }

let workload =
  {
    name = "gpu_frames";
    unit_name = "frame";
    units_per_round = frames_per_round;
    reps = 15;
    config = Paradice.Config.default;
    build;
    reference =
      Some
        ( "Gfx.run Nexuiz 1280x1024, fps",
          fun () ->
            let _, env =
              Baselines.Setup.make ~devices:[ Baselines.Setup.Gpu ]
                (Baselines.Setup.Paradice Paradice.Config.default)
            in
            Sim_value (Workloads.Gfx.run env ~profile ~width ~height ~frames:frames_per_round ()) );
    paper = "Figure 4: Nexuiz stays playable under Paradice at every resolution";
  }
