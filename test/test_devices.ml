(* Tests for the device models and their drivers, driven natively
   through the device-file interface. *)

open Oskit
open Fixtures

let page = Memory.Addr.page_size

(* ---- GPU ---- *)

let test_gpu_gem_create_mmap () =
  let m, _drv = gpu_machine () in
  run_in_process m.eng (fun () ->
      let task = Kernel.spawn_task m.kernel ~name:"app" in
      let fd = ok (Vfs.openf m.kernel task "/dev/dri/card0") in
      let handle = gem_create m.kernel task fd ~size:(2 * page) ~domain:Devices.Radeon_ioctl.domain_gtt in
      Alcotest.(check bool) "handle is positive" true (handle > 0);
      let gva = gem_mmap m.kernel task fd ~handle in
      Vfs.user_write m.kernel task ~gva (Bytes.of_string "texture-data");
      Alcotest.(check string) "bo readable through mapping" "texture-data"
        (Bytes.to_string (Vfs.user_read m.kernel task ~gva ~len:12));
      (* second page too (crosses into second GTT page) *)
      Vfs.user_write m.kernel task ~gva:(gva + page) (Bytes.of_string "page2");
      Alcotest.(check string) "second page" "page2"
        (Bytes.to_string (Vfs.user_read m.kernel task ~gva:(gva + page) ~len:5)))

let test_gpu_vram_bo () =
  let m, drv = gpu_machine () in
  run_in_process m.eng (fun () ->
      let task = Kernel.spawn_task m.kernel ~name:"app" in
      let fd = ok (Vfs.openf m.kernel task "/dev/dri/card0") in
      let handle = gem_create m.kernel task fd ~size:page ~domain:Devices.Radeon_ioctl.domain_vram in
      let gva = gem_mmap m.kernel task fd ~handle in
      Vfs.user_write m.kernel task ~gva (Bytes.of_string "in-vram");
      (* the bytes must physically live in the VRAM aperture *)
      let vram_base = Devices.Gpu_hw.vram_base (Devices.Radeon_drv.gpu drv) in
      let found = Memory.Phys_mem.read m.phys ~spa:vram_base ~len:7 in
      Alcotest.(check string) "data in device memory" "in-vram" (Bytes.to_string found))

let test_gpu_matmul_end_to_end () =
  let m, _drv = gpu_machine () in
  run_in_process m.eng (fun () ->
      let task = Kernel.spawn_task m.kernel ~name:"opencl" in
      let fd = ok (Vfs.openf m.kernel task "/dev/dri/card0") in
      let order = 8 in
      let bytes = order * order * 8 in
      let mk () =
        gem_create m.kernel task fd ~size:bytes ~domain:Devices.Radeon_ioctl.domain_gtt
      in
      let ha = mk () and hb = mk () and hout = mk () in
      let va = gem_mmap m.kernel task fd ~handle:ha in
      let vb = gem_mmap m.kernel task fd ~handle:hb in
      let vout = gem_mmap m.kernel task fd ~handle:hout in
      write_matrix m.kernel task ~gva:va ~order (fun i j -> float_of_int ((i * 2) + j));
      write_matrix m.kernel task ~gva:vb ~order (fun i j -> if i = j then 1. else 0.);
      (* B = identity, so out must equal A *)
      let ib =
        [ Devices.Radeon_ioctl.pkt_compute; order; 0; 1; 2; 1 (* full=1 *) ]
      in
      let fence = submit_cs m.kernel task fd ~ib_words:ib ~relocs:[| ha; hb; hout |] in
      Alcotest.(check bool) "fence issued" true (fence > 0);
      wait_idle m.kernel task fd;
      let all_match = ref true in
      for i = 0 to order - 1 do
        for j = 0 to order - 1 do
          let expected = float_of_int ((i * 2) + j) in
          let got = read_matrix_elt m.kernel task ~gva:vout ~order ~i ~j in
          if abs_float (got -. expected) > 1e-9 then all_match := false
        done
      done;
      Alcotest.(check bool) "GPU computed A x I = A through the whole stack" true
        !all_match)

let test_gpu_matmul_nonidentity () =
  let m, _drv = gpu_machine () in
  run_in_process m.eng (fun () ->
      let task = Kernel.spawn_task m.kernel ~name:"opencl" in
      let fd = ok (Vfs.openf m.kernel task "/dev/dri/card0") in
      let order = 4 in
      let bytes = order * order * 8 in
      let mk () = gem_create m.kernel task fd ~size:bytes ~domain:Devices.Radeon_ioctl.domain_gtt in
      let ha = mk () and hb = mk () and hout = mk () in
      let va = gem_mmap m.kernel task fd ~handle:ha in
      let vb = gem_mmap m.kernel task fd ~handle:hb in
      let vout = gem_mmap m.kernel task fd ~handle:hout in
      let a i j = float_of_int (i + j + 1) and b i j = float_of_int ((i * j) - 2) in
      write_matrix m.kernel task ~gva:va ~order a;
      write_matrix m.kernel task ~gva:vb ~order b;
      let ib = [ Devices.Radeon_ioctl.pkt_compute; order; 0; 1; 2; 1 ] in
      let (_ : int) = submit_cs m.kernel task fd ~ib_words:ib ~relocs:[| ha; hb; hout |] in
      wait_idle m.kernel task fd;
      let okay = ref true in
      for i = 0 to order - 1 do
        for j = 0 to order - 1 do
          let expected = ref 0. in
          for k = 0 to order - 1 do
            expected := !expected +. (a i k *. b k j)
          done;
          let got = read_matrix_elt m.kernel task ~gva:vout ~order ~i ~j in
          if abs_float (got -. !expected) > 1e-9 then okay := false
        done
      done;
      Alcotest.(check bool) "general product correct" true !okay)

let test_gpu_draw_timing () =
  let m, drv = gpu_machine () in
  run_in_process m.eng (fun () ->
      let task = Kernel.spawn_task m.kernel ~name:"game" in
      let fd = ok (Vfs.openf m.kernel task "/dev/dri/card0") in
      let tex =
        gem_create m.kernel task fd ~size:page ~domain:Devices.Radeon_ioctl.domain_gtt
      in
      let t0 = Sim.Engine.now m.eng in
      let ib = [ Devices.Radeon_ioctl.pkt_draw; 1000; 800; 600; 1; 0 ] in
      let (_ : int) = submit_cs m.kernel task fd ~ib_words:ib ~relocs:[| tex |] in
      wait_idle m.kernel task fd;
      let elapsed = Sim.Engine.now m.eng -. t0 in
      let gpu = Devices.Radeon_drv.gpu drv in
      Alcotest.(check int) "one frame rendered" 1 (Devices.Gpu_hw.frames_rendered gpu);
      (* expected: 5 base + 1000*0.3 + 480000*0.006 = 3185us, plus fence *)
      Alcotest.(check bool) "draw took modelled time" true
        (elapsed >= 3185. && elapsed < 3400.))

let test_gpu_info_ioctl () =
  let m, _drv = gpu_machine () in
  run_in_process m.eng (fun () ->
      let task = Kernel.spawn_task m.kernel ~name:"xserver" in
      let fd = ok (Vfs.openf m.kernel task "/dev/dri/card0") in
      let value_buf = Task.alloc_buf task 8 in
      let arg = Task.alloc_buf task Devices.Radeon_ioctl.info_size in
      put_u32 task ~gva:(arg + Devices.Radeon_ioctl.info_off_request)
        Devices.Radeon_ioctl.info_device_id;
      put_u64 task ~gva:(arg + Devices.Radeon_ioctl.info_off_value_ptr) value_buf;
      let rc =
        ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.Radeon_ioctl.info ~arg:(Int64.of_int arg))
      in
      Alcotest.(check int) "info rc" 0 rc;
      (* nested write landed at the pointer inside the struct *)
      Alcotest.(check int) "device id written through value_ptr" 0x6779
        (get_u64 task ~gva:value_buf))

let test_gpu_mc_bounds_block () =
  let m, drv = gpu_machine () in
  let gpu = Devices.Radeon_drv.gpu drv in
  run_in_process m.eng (fun () ->
      let task = Kernel.spawn_task m.kernel ~name:"app" in
      let fd = ok (Vfs.openf m.kernel task "/dev/dri/card0") in
      let hsrc = gem_create m.kernel task fd ~size:page ~domain:Devices.Radeon_ioctl.domain_vram in
      let hdst = gem_create m.kernel task fd ~size:page ~domain:Devices.Radeon_ioctl.domain_gtt in
      (* clamp the MC to a window excluding the src bo *)
      let vbase = Devices.Gpu_hw.vram_base gpu in
      Devices.Mem_ctrl.set_bounds (Devices.Gpu_hw.mem_ctrl gpu) ~low:(vbase + (64 * page))
        ~high:(vbase + (128 * page));
      let ib = [ Devices.Radeon_ioctl.pkt_blit; 0; 1; 64 ] in
      let (_ : int) = submit_cs m.kernel task fd ~ib_words:ib ~relocs:[| hsrc; hdst |] in
      wait_idle m.kernel task fd;
      Alcotest.(check bool) "access blocked by MC bounds" true
        (Devices.Gpu_hw.faults gpu <> []);
      Alcotest.(check bool) "MC counted the block" true
        (Devices.Mem_ctrl.blocked_count (Devices.Gpu_hw.mem_ctrl gpu) > 0))

let test_gpu_unbound_dma_faults () =
  let m, drv = gpu_machine () in
  let gpu = Devices.Radeon_drv.gpu drv in
  run_in_process m.eng (fun () ->
      (* program the device directly with a DMA address the IOMMU does
         not map: the access must fault, not reach memory *)
      Devices.Gpu_hw.submit gpu
        (Devices.Gpu_hw.Blit
           { src = Devices.Gpu_hw.Sys_dma 0xdead000; dst = Devices.Gpu_hw.Vram 0; len = 16 });
      Devices.Gpu_hw.submit gpu (Devices.Gpu_hw.Fence 1);
      Sim.Engine.wait 10_000.;
      Alcotest.(check int) "fault recorded" 1 (List.length (Devices.Gpu_hw.faults gpu)))

(* ---- input ---- *)

let input_machine () =
  let m = make_machine () in
  let ev = Devices.Evdev.create m.kernel ~name:"usbmouse" in
  let (_ : Defs.device) = Devices.Evdev.register ev ~path:"/dev/input/event0" in
  (m, ev)

let test_evdev_read_blocks_and_delivers () =
  let m, ev = input_machine () in
  let got = ref [] in
  Sim.Engine.spawn m.eng (fun () ->
      let task = Kernel.spawn_task m.kernel ~name:"reader" in
      let fd = ok (Vfs.openf m.kernel task "/dev/input/event0") in
      let buf = Task.alloc_buf task 256 in
      let n = ok (Vfs.read m.kernel task fd ~buf ~len:256) in
      let data = Task.read_mem task ~gva:buf ~len:n in
      for i = 0 to (n / Devices.Evdev.event_bytes) - 1 do
        got := Devices.Evdev.decode_event data (i * Devices.Evdev.event_bytes) :: !got
      done);
  Devices.Evdev.start_mouse ev ~rate_hz:125. ~moves:1;
  Sim.Engine.run m.eng;
  (* one move = REL event + SYN event *)
  Alcotest.(check int) "two events delivered" 2 (List.length !got);
  Alcotest.(check bool) "first is REL_X" true
    (List.exists (fun e -> e.Devices.Evdev.ev_type = Devices.Evdev.ev_rel) !got)

let test_evdev_nonblock () =
  let m, _ev = input_machine () in
  run_in_process m.eng (fun () ->
      let task = Kernel.spawn_task m.kernel ~name:"reader" in
      let fd = ok (Vfs.openf m.kernel task "/dev/input/event0") in
      ok (Vfs.set_nonblock m.kernel task fd ~nonblock:true);
      let buf = Task.alloc_buf task 64 in
      match Vfs.read m.kernel task fd ~buf ~len:64 with
      | Error Errno.EAGAIN -> ()
      | _ -> Alcotest.fail "expected EAGAIN")

let test_evdev_fasync_notification () =
  let m, ev = input_machine () in
  let sigio_at = ref nan in
  Sim.Engine.spawn m.eng (fun () ->
      let task = Kernel.spawn_task m.kernel ~name:"reader" in
      let fd = ok (Vfs.openf m.kernel task "/dev/input/event0") in
      Task.on_sigio task (fun () -> sigio_at := Sim.Engine.now m.eng);
      ok (Vfs.fasync m.kernel task fd ~on:true));
  Devices.Evdev.start_mouse ev ~rate_hz:1000. ~moves:1;
  Sim.Engine.run m.eng;
  Alcotest.(check (float 1e-6)) "SIGIO delivered at event time" 1000. !sigio_at

(* ---- camera ---- *)

let camera_machine () =
  let m = make_machine () in
  let cam = Devices.V4l2_drv.create m.kernel ~fps:29.5 in
  let (_ : Defs.device) = Devices.V4l2_drv.register cam ~path:"/dev/video0" in
  Devices.V4l2_drv.start_sensor cam;
  (m, cam)

let test_camera_streaming () =
  let m, cam = camera_machine () in
  run_in_process m.eng (fun () ->
      let task = Kernel.spawn_task m.kernel ~name:"guvcview" in
      let fd = ok (Vfs.openf m.kernel task "/dev/video0") in
      (* set format, request 4 buffers *)
      let fmt = Task.alloc_buf task 8 in
      put_u32 task ~gva:fmt 1280;
      put_u32 task ~gva:(fmt + 4) 720;
      let (_ : int) =
        ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.V4l2_drv.vidioc_s_fmt ~arg:(Int64.of_int fmt))
      in
      let req = Task.alloc_buf task 8 in
      put_u32 task ~gva:req 4;
      let (_ : int) =
        ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.V4l2_drv.vidioc_reqbufs ~arg:(Int64.of_int req))
      in
      (* queue all buffers, stream on *)
      let qb = Task.alloc_buf task 8 in
      for i = 0 to 3 do
        put_u32 task ~gva:qb i;
        let (_ : int) =
          ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.V4l2_drv.vidioc_qbuf ~arg:(Int64.of_int qb))
        in
        ()
      done;
      let (_ : int) = ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.V4l2_drv.vidioc_streamon ~arg:0L) in
      let t0 = Sim.Engine.now m.eng in
      (* capture 10 frames, requeueing *)
      let dq = Task.alloc_buf task 8 in
      for _ = 1 to 10 do
        let (_ : int) =
          ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.V4l2_drv.vidioc_dqbuf ~arg:(Int64.of_int dq))
        in
        let idx = get_u32 task ~gva:dq in
        put_u32 task ~gva:qb idx;
        let (_ : int) =
          ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.V4l2_drv.vidioc_qbuf ~arg:(Int64.of_int qb))
        in
        ()
      done;
      let elapsed = Sim.Engine.now m.eng -. t0 in
      let fps = 10. /. (elapsed /. 1_000_000.) in
      Alcotest.(check int) "10 frames" 10 (Devices.V4l2_drv.frames_delivered cam);
      Alcotest.(check bool) "frame rate near 29.5" true (fps > 28. && fps < 31.))

let test_camera_mmap_frame () =
  let m, _cam = camera_machine () in
  run_in_process m.eng (fun () ->
      let task = Kernel.spawn_task m.kernel ~name:"guvcview" in
      let fd = ok (Vfs.openf m.kernel task "/dev/video0") in
      let req = Task.alloc_buf task 8 in
      put_u32 task ~gva:req 1;
      let (_ : int) =
        ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.V4l2_drv.vidioc_reqbufs ~arg:(Int64.of_int req))
      in
      let qry = Task.alloc_buf task 16 in
      put_u32 task ~gva:qry 0;
      let (_ : int) =
        ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.V4l2_drv.vidioc_querybuf ~arg:(Int64.of_int qry))
      in
      let cookie = get_u64 task ~gva:(qry + 8) in
      let gva =
        ok (Vfs.mmap m.kernel task fd ~len:(56 * page) ~pgoff:(cookie / page))
      in
      (* queue, stream, dequeue one frame, then read its header *)
      let qb = Task.alloc_buf task 8 in
      put_u32 task ~gva:qb 0;
      let (_ : int) = ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.V4l2_drv.vidioc_qbuf ~arg:(Int64.of_int qb)) in
      let (_ : int) = ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.V4l2_drv.vidioc_streamon ~arg:0L) in
      let (_ : int) = ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.V4l2_drv.vidioc_dqbuf ~arg:(Int64.of_int qb)) in
      let hdr = Vfs.user_read m.kernel task ~gva ~len:8 in
      Alcotest.(check int) "MJPG marker in mapped frame" 0xAFAF
        (Int32.to_int (Bytes.get_int32_le hdr 0)))

(* ---- audio ---- *)

let test_audio_realtime_playback () =
  let m = make_machine () in
  let pcm = Devices.Pcm_drv.create m.kernel in
  let (_ : Defs.device) = Devices.Pcm_drv.register pcm ~path:"/dev/snd/pcm0" in
  Devices.Pcm_drv.start_codec pcm;
  run_in_process m.eng (fun () ->
      let task = Kernel.spawn_task m.kernel ~name:"player" in
      let fd = ok (Vfs.openf m.kernel task "/dev/snd/pcm0") in
      (* play 0.5 s of 44.1 kHz stereo s16: 88200 bytes *)
      let seconds = 0.5 in
      let total = int_of_float (seconds *. 44100.) * 4 in
      let chunk = 16 * 1024 in
      let buf = Task.alloc_buf task chunk in
      let t0 = Sim.Engine.now m.eng in
      let remaining = ref total in
      while !remaining > 0 do
        let n = min chunk !remaining in
        let written = ok (Vfs.write m.kernel task fd ~buf ~len:n) in
        remaining := !remaining - written
      done;
      let (_ : int) = ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.Pcm_drv.drain_ioctl ~arg:0L) in
      let elapsed_s = (Sim.Engine.now m.eng -. t0) /. 1_000_000. in
      Alcotest.(check int) "all bytes played" total (Devices.Pcm_drv.consumed_bytes pcm);
      Alcotest.(check bool) "playback took ~0.5s of simulated time" true
        (elapsed_s >= 0.49 && elapsed_s < 0.56))

(* ---- netmap ---- *)

let netmap_machine () =
  let m = make_machine () in
  let nm = Devices.Netmap_drv.create m.kernel ~iommu:m.iommu () in
  let (_ : Defs.device) = Devices.Netmap_drv.register nm ~path:"/dev/netmap" in
  Devices.Netmap_drv.start nm;
  (m, nm)

let test_netmap_regif_and_mmap () =
  let m, nm = netmap_machine () in
  run_in_process m.eng (fun () ->
      let task = Kernel.spawn_task m.kernel ~name:"pktgen" in
      let fd = ok (Vfs.openf m.kernel task "/dev/netmap") in
      let arg = Task.alloc_buf task 16 in
      let (_ : int) =
        ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.Netmap_drv.nioc_regif ~arg:(Int64.of_int arg))
      in
      Alcotest.(check int) "slots reported" 1024 (get_u32 task ~gva:(arg + 4));
      Alcotest.(check int) "buf size reported" 2048 (get_u32 task ~gva:(arg + 8));
      let gva = ok (Vfs.mmap m.kernel task fd ~len:(Devices.Netmap_drv.ring_bytes nm) ~pgoff:0) in
      (* header visible through the mapping *)
      let hdr = Vfs.user_read m.kernel task ~gva ~len:4 in
      Alcotest.(check int) "num_slots via mmap" 1024
        (Int32.to_int (Bytes.get_int32_le hdr 0)))

let test_netmap_tx_line_rate () =
  let m, nm = netmap_machine () in
  run_in_process m.eng (fun () ->
      let task = Kernel.spawn_task m.kernel ~name:"pktgen" in
      let fd = ok (Vfs.openf m.kernel task "/dev/netmap") in
      let gva = ok (Vfs.mmap m.kernel task fd ~len:(Devices.Netmap_drv.ring_bytes nm) ~pgoff:0) in
      (* touch the header page in *)
      let (_ : bytes) = Vfs.user_read m.kernel task ~gva ~len:16 in
      let num_slots = 1024 in
      let batch = 256 and total = 4096 in
      let cur = ref 0 and sent = ref 0 in
      let read_hdr off =
        Int32.to_int
          (Bytes.get_int32_le (Vfs.user_read m.kernel task ~gva:(gva + off) ~len:4) 0)
      in
      let free_space () =
        let tail = read_hdr Devices.Netmap_drv.hdr_tail in
        (tail - !cur - 1 + num_slots) mod num_slots
      in
      let t0 = Sim.Engine.now m.eng in
      while !sent < total do
        let space = free_space () in
        if space = 0 then begin
          (* ring full: poll sleeps until the NIC frees slots *)
          let (_ : Defs.poll_result) =
            ok (Vfs.poll m.kernel task fd ~want_in:false ~want_out:true ~timeout:1_000_000.)
          in
          ()
        end
        else begin
          let n = min (min batch space) (total - !sent) in
          (* fill slots: write slot lens through the mapping *)
          for _ = 1 to n do
            let slot_gva =
              gva + Devices.Netmap_drv.slots_off + (!cur * Devices.Netmap_drv.slot_bytes)
            in
            let b = Bytes.create 4 in
            Bytes.set_int32_le b 0 64l;
            Vfs.user_write m.kernel task ~gva:slot_gva b;
            cur := (!cur + 1) mod num_slots
          done;
          (* per-packet CPU cost of filling slots (netmap's ~60ns) *)
          Sim.Engine.wait (float_of_int n *. 0.06);
          let b = Bytes.create 4 in
          Bytes.set_int32_le b 0 (Int32.of_int !cur);
          Vfs.user_write m.kernel task ~gva:(gva + Devices.Netmap_drv.hdr_cur) b;
          sent := !sent + n;
          let (_ : int) =
            ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.Netmap_drv.nioc_txsync ~arg:0L)
          in
          ()
        end
      done;
      (* wait for the NIC to drain *)
      let (_ : int) = ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.Netmap_drv.nioc_txsync ~arg:0L) in
      while Devices.Netmap_drv.tx_packets nm < total do
        Sim.Engine.wait 50.
      done;
      let elapsed_s = (Sim.Engine.now m.eng -. t0) /. 1_000_000. in
      let rate_mpps = float_of_int (Devices.Netmap_drv.tx_packets nm) /. elapsed_s /. 1e6 in
      Alcotest.(check int) "all packets transmitted" total (Devices.Netmap_drv.tx_packets nm);
      Alcotest.(check bool)
        (Printf.sprintf "rate near 1.488 Mpps line rate (got %.3f)" rate_mpps)
        true
        (rate_mpps > 1.3 && rate_mpps <= 1.5))

(* The slot table (64 + 1024 * 8 bytes) spans three pages: filling
   every slot through the application's mapping must leave the packet
   buffers alone, so the NIC's DMA of buffer 0 reads what the
   application wrote there. *)
let test_netmap_slots_clear_of_buffers () =
  let m, nm = netmap_machine () in
  run_in_process m.eng (fun () ->
      let task = Kernel.spawn_task m.kernel ~name:"pktgen" in
      let fd = ok (Vfs.openf m.kernel task "/dev/netmap") in
      let gva = ok (Vfs.mmap m.kernel task fd ~len:(Devices.Netmap_drv.ring_bytes nm) ~pgoff:0) in
      let frame = Bytes.of_string "dst-mac+src-mac!" in
      Vfs.user_write m.kernel task ~gva:(gva + Devices.Netmap_drv.buf_offset nm 0) frame;
      let len = Bytes.create 4 in
      Bytes.set_int32_le len 0 64l;
      for slot = Devices.Netmap_drv.ring_slots nm - 1 downto 0 do
        Vfs.user_write m.kernel task
          ~gva:(gva + Devices.Netmap_drv.slots_off + (slot * Devices.Netmap_drv.slot_bytes))
          len
      done;
      Bytes.set_int32_le len 0 1l;
      Vfs.user_write m.kernel task ~gva:(gva + Devices.Netmap_drv.hdr_cur) len;
      let (_ : int) = ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.Netmap_drv.nioc_txsync ~arg:0L) in
      while Devices.Netmap_drv.tx_packets nm < 1 do
        Sim.Engine.wait 1.
      done;
      Alcotest.(check string) "NIC read buffer 0's own bytes" (Bytes.to_string frame)
        (Bytes.to_string (Devices.Netmap_drv.last_tx_header nm));
      Alcotest.(check bool) "buffers start after the slot table" true
        (Devices.Netmap_drv.buf_offset nm 0
        >= Devices.Netmap_drv.slots_off
           + (Devices.Netmap_drv.ring_slots nm * Devices.Netmap_drv.slot_bytes)))

(* ---- interface-audit regressions: trust-the-argument fixes ---- *)

let expect_errno name want = function
  | Error e when e = want -> ()
  | Error e -> Alcotest.failf "%s: expected %s, got %s" name (Errno.to_string want) (Errno.to_string e)
  | Ok _ -> Alcotest.failf "%s: expected %s, got success" name (Errno.to_string want)

(* a CS whose IB chunk claims packets extending past the chunk used to
   read out of bounds (Invalid_argument escape); it must be EINVAL *)
let test_gpu_truncated_ib_rejected () =
  let m, _drv = gpu_machine () in
  run_in_process m.eng (fun () ->
      let task = Kernel.spawn_task m.kernel ~name:"attacker" in
      let fd = ok (Vfs.openf m.kernel task "/dev/dri/card0") in
      let submit ib_words =
        let ib_bytes = List.length ib_words * 4 in
        let ib_buf = Task.alloc_buf task (max ib_bytes 4) in
        List.iteri (fun i w -> put_u32 task ~gva:(ib_buf + (i * 4)) w) ib_words;
        let reloc_buf = Task.alloc_buf task 4 in
        let hdr_ib = Task.alloc_buf task Devices.Radeon_ioctl.cs_chunk_header_size in
        put_u32 task ~gva:(hdr_ib + Devices.Radeon_ioctl.chunk_off_id)
          Devices.Radeon_ioctl.chunk_id_ib;
        put_u32 task ~gva:(hdr_ib + Devices.Radeon_ioctl.chunk_off_length_dw)
          (List.length ib_words);
        put_u64 task ~gva:(hdr_ib + Devices.Radeon_ioctl.chunk_off_data) ib_buf;
        let hdr_re = Task.alloc_buf task Devices.Radeon_ioctl.cs_chunk_header_size in
        put_u32 task ~gva:(hdr_re + Devices.Radeon_ioctl.chunk_off_id)
          Devices.Radeon_ioctl.chunk_id_relocs;
        put_u32 task ~gva:(hdr_re + Devices.Radeon_ioctl.chunk_off_length_dw) 0;
        put_u64 task ~gva:(hdr_re + Devices.Radeon_ioctl.chunk_off_data) reloc_buf;
        let ptrs = Task.alloc_buf task 16 in
        put_u64 task ~gva:ptrs hdr_ib;
        put_u64 task ~gva:(ptrs + 8) hdr_re;
        let arg = Task.alloc_buf task Devices.Radeon_ioctl.cs_size in
        put_u32 task ~gva:(arg + Devices.Radeon_ioctl.cs_off_num_chunks) 2;
        put_u64 task ~gva:(arg + Devices.Radeon_ioctl.cs_off_chunks_ptr) ptrs;
        Vfs.ioctl m.kernel task fd ~cmd:Devices.Radeon_ioctl.cs ~arg:(Int64.of_int arg)
      in
      (* a draw header cut off mid-packet *)
      expect_errno "cut-off draw packet" Errno.EINVAL
        (submit [ Devices.Radeon_ioctl.pkt_draw; 1 ]);
      (* a hostile texture count scaling the reloc read run *)
      expect_errno "hostile ntex" Errno.EINVAL
        (submit [ Devices.Radeon_ioctl.pkt_draw; 1; 16; 16; 100_000 ]))

let test_evdev_ioctl_surface () =
  let m, ev = input_machine () in
  run_in_process m.eng (fun () ->
      let task = Kernel.spawn_task m.kernel ~name:"xorg" in
      let fd = ok (Vfs.openf m.kernel task "/dev/input/event0") in
      (* identity copy-out *)
      let idb = Task.alloc_buf task 8 in
      let (_ : int) =
        ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.Evdev.eviocgid ~arg:(Int64.of_int idb))
      in
      let id = Task.read_mem task ~gva:idb ~len:8 in
      Alcotest.(check int) "bustype" Devices.Evdev.id_bustype
        (Bytes.get_uint16_le id 0);
      Alcotest.(check int) "vendor" Devices.Evdev.id_vendor (Bytes.get_uint16_le id 2);
      (* autorepeat: defaults out, valid update in, reflected back *)
      let rep = Task.alloc_buf task 8 in
      let (_ : int) =
        ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.Evdev.eviocgrep ~arg:(Int64.of_int rep))
      in
      Alcotest.(check (pair int int)) "default autorepeat" (250, 33)
        (get_u32 task ~gva:rep, get_u32 task ~gva:(rep + 4));
      put_u32 task ~gva:rep 400;
      put_u32 task ~gva:(rep + 4) 50;
      let (_ : int) =
        ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.Evdev.eviocsrep ~arg:(Int64.of_int rep))
      in
      Alcotest.(check (pair int int)) "autorepeat programmed" (400, 50)
        (Devices.Evdev.autorepeat ev);
      (* out-of-range parameters are rejected, state untouched *)
      put_u32 task ~gva:rep (Devices.Evdev.rep_delay_max + 1);
      put_u32 task ~gva:(rep + 4) 50;
      expect_errno "huge delay" Errno.EINVAL
        (Vfs.ioctl m.kernel task fd ~cmd:Devices.Evdev.eviocsrep ~arg:(Int64.of_int rep));
      put_u32 task ~gva:rep 400;
      put_u32 task ~gva:(rep + 4) 0;
      expect_errno "zero period" Errno.EINVAL
        (Vfs.ioctl m.kernel task fd ~cmd:Devices.Evdev.eviocsrep ~arg:(Int64.of_int rep));
      Alcotest.(check (pair int int)) "rejected updates change nothing" (400, 50)
        (Devices.Evdev.autorepeat ev);
      (* grab is exclusive per file; release frees it *)
      let fd2 = ok (Vfs.openf m.kernel task "/dev/input/event0") in
      let (_ : int) = ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.Evdev.eviocgrab ~arg:1L) in
      expect_errno "second grab" Errno.EBUSY
        (Vfs.ioctl m.kernel task fd2 ~cmd:Devices.Evdev.eviocgrab ~arg:1L);
      let (_ : int) = ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.Evdev.eviocgrab ~arg:0L) in
      let (_ : int) = ok (Vfs.ioctl m.kernel task fd2 ~cmd:Devices.Evdev.eviocgrab ~arg:1L) in
      (* closing the holder releases the grab *)
      ok (Vfs.close m.kernel task fd2);
      let (_ : int) = ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.Evdev.eviocgrab ~arg:1L) in
      expect_errno "unknown evdev ioctl" Errno.ENOTTY
        (Vfs.ioctl m.kernel task fd ~cmd:0x4518 ~arg:0L))

(* reconfiguration during streaming would yank frame buffers out from
   under the sensor; both paths must be EBUSY until streamoff *)
let test_camera_busy_while_streaming () =
  let m, _cam = camera_machine () in
  run_in_process m.eng (fun () ->
      let task = Kernel.spawn_task m.kernel ~name:"guvcview" in
      let fd = ok (Vfs.openf m.kernel task "/dev/video0") in
      let req = Task.alloc_buf task 8 in
      put_u32 task ~gva:req 2;
      let (_ : int) =
        ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.V4l2_drv.vidioc_reqbufs ~arg:(Int64.of_int req))
      in
      let qb = Task.alloc_buf task 8 in
      put_u32 task ~gva:qb 0;
      let (_ : int) =
        ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.V4l2_drv.vidioc_qbuf ~arg:(Int64.of_int qb))
      in
      let (_ : int) =
        ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.V4l2_drv.vidioc_streamon ~arg:0L)
      in
      put_u32 task ~gva:req 4;
      expect_errno "reqbufs while streaming" Errno.EBUSY
        (Vfs.ioctl m.kernel task fd ~cmd:Devices.V4l2_drv.vidioc_reqbufs ~arg:(Int64.of_int req));
      let fmt = Task.alloc_buf task 8 in
      put_u32 task ~gva:fmt 640;
      put_u32 task ~gva:(fmt + 4) 480;
      expect_errno "s_fmt while streaming" Errno.EBUSY
        (Vfs.ioctl m.kernel task fd ~cmd:Devices.V4l2_drv.vidioc_s_fmt ~arg:(Int64.of_int fmt));
      let (_ : int) =
        ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.V4l2_drv.vidioc_streamoff ~arg:0L)
      in
      let (_ : int) =
        ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.V4l2_drv.vidioc_s_fmt ~arg:(Int64.of_int fmt))
      in
      ())

(* a u32 rate of 0xFFFFFFFF must not sign-wrap into the valid range *)
let test_audio_hostile_rate_rejected () =
  let m = make_machine () in
  let pcm = Devices.Pcm_drv.create m.kernel in
  let (_ : Defs.device) = Devices.Pcm_drv.register pcm ~path:"/dev/snd/pcm0" in
  Devices.Pcm_drv.start_codec pcm;
  run_in_process m.eng (fun () ->
      let task = Kernel.spawn_task m.kernel ~name:"attacker" in
      let fd = ok (Vfs.openf m.kernel task "/dev/snd/pcm0") in
      let arg = Task.alloc_buf task 8 in
      let bps0 = Devices.Pcm_drv.bytes_per_second pcm in
      put_u32 task ~gva:arg 0xFFFFFFFF;
      put_u32 task ~gva:(arg + 4) 2;
      expect_errno "wrapped rate" Errno.EINVAL
        (Vfs.ioctl m.kernel task fd ~cmd:Devices.Pcm_drv.set_rate_ioctl ~arg:(Int64.of_int arg));
      put_u32 task ~gva:arg 48_000;
      put_u32 task ~gva:(arg + 4) 0;
      expect_errno "zero channels" Errno.EINVAL
        (Vfs.ioctl m.kernel task fd ~cmd:Devices.Pcm_drv.set_rate_ioctl ~arg:(Int64.of_int arg));
      Alcotest.(check int) "rejected rate leaves codec untouched" bps0
        (Devices.Pcm_drv.bytes_per_second pcm);
      put_u32 task ~gva:(arg + 4) 2;
      let (_ : int) =
        ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.Pcm_drv.set_rate_ioctl ~arg:(Int64.of_int arg))
      in
      Alcotest.(check int) "valid rate programmed" (48_000 * 2 * 2)
        (Devices.Pcm_drv.bytes_per_second pcm))

let test_netmap_bad_ringid_rejected () =
  let m, _nm = netmap_machine () in
  run_in_process m.eng (fun () ->
      let task = Kernel.spawn_task m.kernel ~name:"attacker" in
      let fd = ok (Vfs.openf m.kernel task "/dev/netmap") in
      let arg = Task.alloc_buf task 16 in
      put_u32 task ~gva:arg 7;
      expect_errno "nonexistent ring" Errno.EINVAL
        (Vfs.ioctl m.kernel task fd ~cmd:Devices.Netmap_drv.nioc_regif ~arg:(Int64.of_int arg)))

(* [cur] lives in the mmap'd ring header, so it is attacker-controlled:
   an out-of-range value used to unhinge the NIC's mod-ring walk into
   transmitting forever; it must invalidate the sync instead *)
let test_netmap_hostile_cur_bounded () =
  let m, nm = netmap_machine () in
  run_in_process m.eng (fun () ->
      let task = Kernel.spawn_task m.kernel ~name:"attacker" in
      let fd = ok (Vfs.openf m.kernel task "/dev/netmap") in
      let gva = ok (Vfs.mmap m.kernel task fd ~len:(Devices.Netmap_drv.ring_bytes nm) ~pgoff:0) in
      let (_ : bytes) = Vfs.user_read m.kernel task ~gva ~len:16 in
      (* cur far beyond num_slots, straight through the shared header *)
      let b = Bytes.create 4 in
      Bytes.set_int32_le b 0 5000l;
      Vfs.user_write m.kernel task ~gva:(gva + Devices.Netmap_drv.hdr_cur) b;
      let (_ : int) =
        ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.Netmap_drv.nioc_txsync ~arg:0L)
      in
      Sim.Engine.wait 10_000.;
      Alcotest.(check int) "invalid cur transmits nothing" 0
        (Devices.Netmap_drv.tx_packets nm);
      (* a subsequent honest sync still works *)
      Bytes.set_int32_le b 0 3l;
      Vfs.user_write m.kernel task ~gva:(gva + Devices.Netmap_drv.hdr_cur) b;
      let (_ : int) =
        ok (Vfs.ioctl m.kernel task fd ~cmd:Devices.Netmap_drv.nioc_txsync ~arg:0L)
      in
      while Devices.Netmap_drv.tx_packets nm < 3 do
        Sim.Engine.wait 50.
      done;
      Alcotest.(check int) "honest sync transmits" 3 (Devices.Netmap_drv.tx_packets nm))

let suites =
  [
    ( "devices.gpu",
      [
        Alcotest.test_case "gem create + mmap" `Quick test_gpu_gem_create_mmap;
        Alcotest.test_case "vram bo lives in aperture" `Quick test_gpu_vram_bo;
        Alcotest.test_case "matmul A*I end-to-end" `Quick test_gpu_matmul_end_to_end;
        Alcotest.test_case "matmul general" `Quick test_gpu_matmul_nonidentity;
        Alcotest.test_case "draw timing model" `Quick test_gpu_draw_timing;
        Alcotest.test_case "info nested write" `Quick test_gpu_info_ioctl;
        Alcotest.test_case "mc bounds block access" `Quick test_gpu_mc_bounds_block;
        Alcotest.test_case "unbound dma faults" `Quick test_gpu_unbound_dma_faults;
        Alcotest.test_case "truncated IB rejected" `Quick test_gpu_truncated_ib_rejected;
      ] );
    ( "devices.input",
      [
        Alcotest.test_case "read blocks and delivers" `Quick test_evdev_read_blocks_and_delivers;
        Alcotest.test_case "nonblocking read" `Quick test_evdev_nonblock;
        Alcotest.test_case "fasync notification" `Quick test_evdev_fasync_notification;
        Alcotest.test_case "ioctl surface" `Quick test_evdev_ioctl_surface;
      ] );
    ( "devices.camera",
      [
        Alcotest.test_case "streaming at sensor rate" `Quick test_camera_streaming;
        Alcotest.test_case "mmap'd frame readable" `Quick test_camera_mmap_frame;
        Alcotest.test_case "busy while streaming" `Quick test_camera_busy_while_streaming;
      ] );
    ( "devices.audio",
      [
        Alcotest.test_case "realtime playback" `Quick test_audio_realtime_playback;
        Alcotest.test_case "hostile rate rejected" `Quick test_audio_hostile_rate_rejected;
      ] );
    ( "devices.net",
      [
        Alcotest.test_case "regif and ring mmap" `Quick test_netmap_regif_and_mmap;
        Alcotest.test_case "tx at line rate" `Quick test_netmap_tx_line_rate;
        Alcotest.test_case "bad ringid rejected" `Quick test_netmap_bad_ringid_rejected;
        Alcotest.test_case "hostile cur bounded" `Quick test_netmap_hostile_cur_bounded;
        Alcotest.test_case "slot table clear of buffers" `Quick
          test_netmap_slots_clear_of_buffers;
      ] );
  ]
