(* Tests for the kernel substrate: VFS dispatch, demand paging, poll,
   fasync, and the wrapper-stub redirection of driver memory ops. *)

open Oskit

let mib = 1024 * 1024

type fixture = {
  eng : Sim.Engine.t;
  hyp : Hypervisor.Hyp.t;
  kernel : Kernel.t;
  task : Defs.task;
}

let make_fixture ?(flavor = Os_flavor.Linux_3_2_0) () =
  let eng = Sim.Engine.create () in
  let phys = Memory.Phys_mem.create () in
  let hyp = Hypervisor.Hyp.create phys in
  let vm = Hypervisor.Hyp.create_vm hyp ~name:"vm" ~kind:Hypervisor.Vm.Driver ~mem_bytes:(8 * mib) in
  let kernel = Kernel.create ~engine:eng ~vm ~flavor ~costs:Kernel.zero_costs () in
  let task = Kernel.spawn_task kernel ~name:"app" in
  { eng; hyp; kernel; task }

(* A simple "echo" character device: write stores bytes, read returns
   them; ioctl 0x1234 reports the stored length; an mmap'd page is
   faulted in lazily from a device page. *)
let make_echo_device kernel =
  let stored = Buffer.create 64 in
  let device_page_gpa = Hypervisor.Vm.alloc_gpa_page (Kernel.vm kernel) in
  Hypervisor.Vm.write_gpa (Kernel.vm kernel) ~gpa:device_page_gpa
    (Bytes.of_string "device-page-contents");
  let fault_count = ref 0 in
  let ops =
    {
      Defs.default_ops with
      fop_kinds =
        [ Os_flavor.Open; Os_flavor.Release; Os_flavor.Read; Os_flavor.Write;
          Os_flavor.Ioctl; Os_flavor.Mmap; Os_flavor.Fault ];
      fop_write =
        (fun task _file ~buf ~len ->
          Buffer.add_bytes stored (Uaccess.copy_from_user task ~uaddr:buf ~len);
          len);
      fop_read =
        (fun task _file ~buf ~len ->
          let available = min len (Buffer.length stored) in
          Uaccess.copy_to_user task ~uaddr:buf
            (Bytes.of_string (Buffer.sub stored 0 available));
          available);
      fop_ioctl =
        (fun task _file ~cmd ~arg ->
          match cmd with
          | 0x1234 ->
              Uaccess.copy_to_user_u32 task ~uaddr:(Int64.to_int arg)
                (Buffer.length stored);
              0
          | _ -> Errno.fail Errno.ENOTTY "unknown ioctl");
      fop_mmap = (fun _task _file _vma -> (* lazy: fault-driven *) ());
      fop_fault =
        (fun task _file _vma ~gva ->
          incr fault_count;
          Uaccess.insert_pfn task ~gva ~page_gpa:device_page_gpa
            ~perms:Memory.Perm.rw);
    }
  in
  ( Defs.make_device ~path:"/dev/echo0" ~cls:"test" ~driver:"echo" ops,
    fault_count,
    device_page_gpa )

let run_in_process eng f =
  let result = ref None in
  Sim.Engine.spawn eng (fun () -> result := Some (f ()));
  Sim.Engine.run eng;
  match !result with Some v -> v | None -> Alcotest.fail "process did not complete"

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected errno %s" (Errno.to_string e)

let test_open_missing_device () =
  let f = make_fixture () in
  run_in_process f.eng (fun () ->
      match Vfs.openf f.kernel f.task "/dev/nope" with
      | Ok _ -> Alcotest.fail "should not open"
      | Error e -> Alcotest.(check string) "ENODEV" "ENODEV" (Errno.to_string e))

let test_read_write_ioctl () =
  let f = make_fixture () in
  let dev, _, _ = make_echo_device f.kernel in
  Devfs.register (Kernel.devfs f.kernel) dev;
  run_in_process f.eng (fun () ->
      let fd = ok (Vfs.openf f.kernel f.task "/dev/echo0") in
      let buf = Task.alloc_buf f.task 64 in
      Task.write_mem f.task ~gva:buf (Bytes.of_string "hello driver");
      Alcotest.(check int) "write consumed" 12
        (ok (Vfs.write f.kernel f.task fd ~buf ~len:12));
      let rbuf = Task.alloc_buf f.task 64 in
      Alcotest.(check int) "read returned" 12
        (ok (Vfs.read f.kernel f.task fd ~buf:rbuf ~len:64));
      Alcotest.(check string) "payload echoed" "hello driver"
        (Bytes.to_string (Task.read_mem f.task ~gva:rbuf ~len:12));
      let arg_buf = Task.alloc_buf f.task 8 in
      Alcotest.(check int) "ioctl ok" 0
        (ok (Vfs.ioctl f.kernel f.task fd ~cmd:0x1234 ~arg:(Int64.of_int arg_buf)));
      Alcotest.(check int) "ioctl wrote back length" 12
        (Task.read_u32 f.task ~gva:arg_buf);
      Alcotest.(check bool) "unknown ioctl is ENOTTY" true
        (match Vfs.ioctl f.kernel f.task fd ~cmd:0x9999 ~arg:0L with
        | Error Errno.ENOTTY -> true
        | _ -> false);
      ok (Vfs.close f.kernel f.task fd))

let test_bad_fd () =
  let f = make_fixture () in
  run_in_process f.eng (fun () ->
      match Vfs.read f.kernel f.task 42 ~buf:0 ~len:1 with
      | Error Errno.EINVAL -> ()
      | _ -> Alcotest.fail "expected EINVAL")

let test_exclusive_open () =
  let f = make_fixture () in
  let ops = { Defs.default_ops with Defs.fop_kinds = [ Os_flavor.Open; Os_flavor.Release ] } in
  let dev = Defs.make_device ~path:"/dev/video0" ~cls:"camera" ~driver:"uvc" ~exclusive:true ops in
  Devfs.register (Kernel.devfs f.kernel) dev;
  run_in_process f.eng (fun () ->
      let fd = ok (Vfs.openf f.kernel f.task "/dev/video0") in
      (match Vfs.openf f.kernel f.task "/dev/video0" with
      | Error Errno.EBUSY -> ()
      | _ -> Alcotest.fail "second open should be EBUSY");
      ok (Vfs.close f.kernel f.task fd);
      let fd2 = ok (Vfs.openf f.kernel f.task "/dev/video0") in
      ok (Vfs.close f.kernel f.task fd2))

let test_mmap_demand_paging () =
  let f = make_fixture () in
  let dev, fault_count, _gpa = make_echo_device f.kernel in
  Devfs.register (Kernel.devfs f.kernel) dev;
  run_in_process f.eng (fun () ->
      let fd = ok (Vfs.openf f.kernel f.task "/dev/echo0") in
      let gva = ok (Vfs.mmap f.kernel f.task fd ~len:Memory.Addr.page_size ~pgoff:0) in
      Alcotest.(check int) "no fault before first touch" 0 !fault_count;
      let data = Vfs.user_read f.kernel f.task ~gva ~len:20 in
      Alcotest.(check string) "mapped device page readable" "device-page-contents"
        (Bytes.to_string data);
      Alcotest.(check int) "exactly one fault" 1 !fault_count;
      (* second access: already mapped, no further fault *)
      let (_ : bytes) = Vfs.user_read f.kernel f.task ~gva ~len:4 in
      Alcotest.(check int) "no second fault" 1 !fault_count;
      Vfs.user_write f.kernel f.task ~gva (Bytes.of_string "WRITTEN");
      ok (Vfs.munmap f.kernel f.task ~gva);
      Alcotest.(check bool) "unmapped va faults without vma" true
        (match Vfs.user_read f.kernel f.task ~gva ~len:1 with
        | _ -> false
        | exception Errno.Unix_error (Errno.EFAULT, _) -> true))

let test_poll_blocks_until_wake () =
  let f = make_fixture () in
  let wq = Wait_queue.create f.eng in
  let ready = ref false in
  let ops =
    {
      Defs.default_ops with
      Defs.fop_poll =
        (fun _ _ ~want_in:_ ~want_out:_ ->
          { Defs.pollin = !ready; pollout = false; poll_wq = Some wq });
      fop_kinds = [ Os_flavor.Open; Os_flavor.Release; Os_flavor.Poll ];
    }
  in
  Devfs.register (Kernel.devfs f.kernel)
    (Defs.make_device ~path:"/dev/evt" ~cls:"test" ~driver:"evt" ops);
  let woke_at = ref nan in
  Sim.Engine.spawn f.eng (fun () ->
      let fd = ok (Vfs.openf f.kernel f.task "/dev/evt") in
      let r = ok (Vfs.poll f.kernel f.task fd ~want_in:true ~want_out:false ~timeout:1000.) in
      woke_at := Sim.Engine.now f.eng;
      Alcotest.(check bool) "pollin set" true r.Defs.pollin);
  Sim.Engine.spawn f.eng (fun () ->
      Sim.Engine.wait 50.;
      ready := true;
      Wait_queue.wake_all wq);
  Sim.Engine.run f.eng;
  Alcotest.(check (float 1e-9)) "woke when event arrived" 50. !woke_at

let test_poll_timeout () =
  let f = make_fixture () in
  let wq = Wait_queue.create f.eng in
  let ops =
    {
      Defs.default_ops with
      Defs.fop_poll =
        (fun _ _ ~want_in:_ ~want_out:_ ->
          { Defs.pollin = false; pollout = false; poll_wq = Some wq });
      fop_kinds = [ Os_flavor.Open; Os_flavor.Poll ];
    }
  in
  Devfs.register (Kernel.devfs f.kernel)
    (Defs.make_device ~path:"/dev/evt" ~cls:"test" ~driver:"evt" ops);
  run_in_process f.eng (fun () ->
      let fd = ok (Vfs.openf f.kernel f.task "/dev/evt") in
      let t0 = Sim.Engine.now f.eng in
      let r = ok (Vfs.poll f.kernel f.task fd ~want_in:true ~want_out:false ~timeout:200.) in
      Alcotest.(check bool) "timed out without event" false r.Defs.pollin;
      Alcotest.(check (float 1e-6)) "waited the timeout" 200. (Sim.Engine.now f.eng -. t0))

let test_fasync_sigio () =
  let f = make_fixture () in
  let dev, _, _ = make_echo_device f.kernel in
  let dev =
    { dev with Defs.ops = { dev.Defs.ops with Defs.fop_fasync = (fun _ _ ~on:_ -> ()) };
      dev_path = "/dev/echo1" }
  in
  Devfs.register (Kernel.devfs f.kernel) dev;
  run_in_process f.eng (fun () ->
      let fd = ok (Vfs.openf f.kernel f.task "/dev/echo1") in
      let hits = ref 0 in
      Task.on_sigio f.task (fun () -> incr hits);
      ok (Vfs.fasync f.kernel f.task fd ~on:true);
      let file = Memory.Int_tbl.find f.task.Defs.fds fd in
      Vfs.kill_fasync file;
      Vfs.kill_fasync file;
      Alcotest.(check int) "two SIGIOs delivered" 2 !hits;
      ok (Vfs.fasync f.kernel f.task fd ~on:false);
      Vfs.kill_fasync file;
      Alcotest.(check int) "unsubscribed" 2 !hits)

(* The §5.2 mechanism: the same driver handler, executed by a marked
   thread, operates on a *remote* guest process through the
   hypervisor. *)
let test_marked_thread_redirection () =
  let eng = Sim.Engine.create () in
  let phys = Memory.Phys_mem.create () in
  let hyp = Hypervisor.Hyp.create phys in
  let driver_vm =
    Hypervisor.Hyp.create_vm hyp ~name:"driver" ~kind:Hypervisor.Vm.Driver ~mem_bytes:(8 * mib)
  in
  let guest_vm =
    Hypervisor.Hyp.create_vm hyp ~name:"guest" ~kind:Hypervisor.Vm.Guest ~mem_bytes:(8 * mib)
  in
  let dkernel = Kernel.create ~engine:eng ~vm:driver_vm ~flavor:Os_flavor.Linux_3_2_0 ~costs:Kernel.zero_costs () in
  let gkernel = Kernel.create ~engine:eng ~vm:guest_vm ~flavor:Os_flavor.Linux_3_2_0 ~costs:Kernel.zero_costs () in
  let backend_task = Kernel.spawn_task dkernel ~name:"cvd-backend" in
  let guest_task = Kernel.spawn_task gkernel ~name:"guest-app" in
  let table = Hypervisor.Hyp.setup_grant_table hyp guest_vm in
  run_in_process eng (fun () ->
      (* guest app buffer containing a request *)
      let ubuf = Task.alloc_buf guest_task 32 in
      Task.write_mem guest_task ~gva:ubuf (Bytes.of_string "from-guest");
      (* frontend declares the op, backend marks its thread and runs
         the driver's copy_from_user against the *guest* process *)
      let gref =
        Hypervisor.Grant_table.declare table
          [ Hypervisor.Grant_table.Copy_from_user { addr = ubuf; len = 10 } ]
      in
      let rc =
        {
          Defs.rc_hyp = hyp;
          rc_target = guest_vm;
          rc_pt = guest_task.Defs.pt;
          rc_grant = gref;
          rc_charge = (fun _ -> ());
          rc_trace = 0;
        }
      in
      let seen =
        Task.with_remote backend_task rc (fun () ->
            Uaccess.copy_from_user backend_task ~uaddr:ubuf ~len:10)
      in
      Alcotest.(check string) "driver read guest app memory" "from-guest"
        (Bytes.to_string seen);
      (* undeclared access fails with EFAULT, not a crash *)
      Alcotest.(check bool) "undeclared access -> EFAULT" true
        (match
           Task.with_remote backend_task rc (fun () ->
               Uaccess.copy_from_user backend_task ~uaddr:(ubuf + 16) ~len:4)
         with
        | _ -> false
        | exception Errno.Unix_error (Errno.EFAULT, _) -> true);
      (* unmarked, the same call reads the backend's own process (which
         has no such mapping -> EFAULT from local translation) *)
      Alcotest.(check bool) "unmarked thread stays local" true
        (match Uaccess.copy_from_user backend_task ~uaddr:ubuf ~len:10 with
        | _ -> false
        | exception Errno.Unix_error (Errno.EFAULT, _) -> true))

let test_os_flavor_tables () =
  Alcotest.(check bool) "core ops in 2.6.35" true
    (List.for_all (Os_flavor.supports Os_flavor.Linux_2_6_35) Os_flavor.driver_core_ops);
  Alcotest.(check bool) "core ops in 3.2.0" true
    (List.for_all (Os_flavor.supports Os_flavor.Linux_3_2_0) Os_flavor.driver_core_ops);
  Alcotest.(check bool) "core ops in FreeBSD" true
    (List.for_all (Os_flavor.supports Os_flavor.Freebsd_9) Os_flavor.driver_core_ops);
  let added =
    List.filter
      (fun op -> not (Os_flavor.supports Os_flavor.Linux_2_6_35 op))
      (Os_flavor.supported_ops Os_flavor.Linux_3_2_0)
  in
  Alcotest.(check int) "3.2.0 adds ops absent from 2.6.35" 3 (List.length added);
  Alcotest.(check bool) "freebsd has kqueue, linux does not" true
    (Os_flavor.supports Os_flavor.Freebsd_9 Os_flavor.Kqueue
    && not (Os_flavor.supports Os_flavor.Linux_3_2_0 Os_flavor.Kqueue))

let test_sysfs () =
  let f = make_fixture () in
  let devfs = Kernel.devfs f.kernel in
  Devfs.sysfs_set devfs "gpu0/vendor" "0x1002";
  Devfs.sysfs_set devfs "gpu0/device" "0x6779";
  Alcotest.(check (option string)) "vendor" (Some "0x1002")
    (Devfs.sysfs_get devfs "gpu0/vendor");
  Alcotest.(check int) "two entries" 2 (List.length (Devfs.sysfs_entries devfs))

let test_task_buffers () =
  let f = make_fixture () in
  let gva = Task.alloc_buf f.task 10_000 in
  Task.write_mem f.task ~gva:(gva + 5000) (Bytes.of_string "deep");
  Alcotest.(check string) "multi-page buffer" "deep"
    (Bytes.to_string (Task.read_mem f.task ~gva:(gva + 5000) ~len:4));
  Task.free_buf f.task ~gva ~len:10_000;
  Alcotest.(check bool) "freed buffer faults" true
    (match Task.read_mem f.task ~gva ~len:1 with
    | _ -> false
    | exception Memory.Fault.Page_fault _ -> true)

(* A Gem client allocates and frees 63 pages of argument buffers per
   frame.  Freed VA must be reused, or the 768 MiB heap runs out after
   about 3 120 frames. *)
let test_task_buffers_reused () =
  let f = make_fixture () in
  let page = Memory.Addr.page_size in
  let sizes = [ 59 * page; 2 * page; 100; page ] in
  let cycle () =
    let bufs = List.map (fun len -> (Task.alloc_buf f.task len, len)) sizes in
    List.iter (fun (gva, len) -> Task.free_buf f.task ~gva ~len) bufs;
    List.sort compare (List.map fst bufs)
  in
  let first = cycle () in
  for _ = 2 to 5_000 do
    Alcotest.(check (list int)) "the same VA every cycle" first (cycle ())
  done

let prop_alloc_buf_rw =
  QCheck.Test.make ~name:"task buffers round-trip at random sizes/offsets" ~count:100
    QCheck.(pair (int_range 1 30_000) (int_bound 1000))
    (fun (size, off) ->
      QCheck.assume (off < size);
      let f = make_fixture () in
      let gva = Task.alloc_buf f.task size in
      let payload = Bytes.of_string "xyzzy" in
      let space = size - off in
      let payload =
        if Bytes.length payload > space then Bytes.sub payload 0 space else payload
      in
      QCheck.assume (Bytes.length payload > 0);
      Task.write_mem f.task ~gva:(gva + off) payload;
      Task.read_mem f.task ~gva:(gva + off) ~len:(Bytes.length payload) = payload)

let suites =
  [
    ( "oskit.vfs",
      [
        Alcotest.test_case "open missing device" `Quick test_open_missing_device;
        Alcotest.test_case "read/write/ioctl" `Quick test_read_write_ioctl;
        Alcotest.test_case "bad fd" `Quick test_bad_fd;
        Alcotest.test_case "exclusive open" `Quick test_exclusive_open;
        Alcotest.test_case "mmap demand paging" `Quick test_mmap_demand_paging;
        Alcotest.test_case "poll blocks until wake" `Quick test_poll_blocks_until_wake;
        Alcotest.test_case "poll timeout" `Quick test_poll_timeout;
        Alcotest.test_case "fasync/sigio" `Quick test_fasync_sigio;
      ] );
    ( "oskit.uaccess",
      [ Alcotest.test_case "marked-thread redirection" `Quick test_marked_thread_redirection ] );
    ( "oskit.misc",
      [
        Alcotest.test_case "os flavor tables" `Quick test_os_flavor_tables;
        Alcotest.test_case "sysfs" `Quick test_sysfs;
        Alcotest.test_case "task buffers" `Quick test_task_buffers;
        Alcotest.test_case "task buffers reused over 5000 cycles" `Quick
          test_task_buffers_reused;
        QCheck_alcotest.to_alcotest prop_alloc_buf_rw;
      ] );
  ]
