(** The VFS layer: system calls on device files (§2.1).

    Applications call these; the kernel dispatches to the device
    driver's file-operation handlers.  Driver errors ({!Errno.Unix_error})
    are converted to [Error] results, mirroring negative syscall
    returns. *)

open Defs

type 'a result = ('a, Errno.t) Stdlib.result

let wrap f = try Ok (f ()) with Errno.Unix_error (errno, _) -> Error errno

let lookup_fd task fd =
  match Memory.Int_tbl.find_opt task.fds fd with
  | Some file when not file.closed -> file
  | Some _ | None -> Errno.fail Errno.EINVAL "bad file descriptor"

(** Open a device file. *)
let openf kernel task path : int result =
  Kernel.charge_syscall kernel;
  wrap (fun () ->
      match Devfs.lookup (Kernel.devfs kernel) path with
      | None -> Errno.fail Errno.ENODEV ("no such device: " ^ path)
      | Some dev ->
          if dev.exclusive && dev.open_count > 0 then
            Errno.fail Errno.EBUSY (path ^ " is single-open");
          let file =
            {
              file_id = Kernel.alloc_file_id kernel;
              dev;
              opener = task;
              nonblock = false;
              fasync_subscribers = [];
              closed = false;
            }
          in
          dev.ops.fop_open task file;
          dev.open_count <- dev.open_count + 1;
          let fd = task.next_fd in
          task.next_fd <- fd + 1;
          Memory.Int_tbl.replace task.fds fd file;
          fd)

let close kernel task fd : unit result =
  Kernel.charge_syscall kernel;
  wrap (fun () ->
      let file = lookup_fd task fd in
      file.dev.ops.fop_release task file;
      file.closed <- true;
      file.dev.open_count <- file.dev.open_count - 1;
      file.fasync_subscribers <- [];
      Memory.Int_tbl.remove task.fds fd)

let set_nonblock _kernel task fd ~nonblock : unit result =
  wrap (fun () -> (lookup_fd task fd).nonblock <- nonblock)

let read kernel task fd ~buf ~len : int result =
  Kernel.charge_syscall kernel;
  wrap (fun () ->
      let file = lookup_fd task fd in
      file.dev.ops.fop_read task file ~buf ~len)

let write kernel task fd ~buf ~len : int result =
  Kernel.charge_syscall kernel;
  wrap (fun () ->
      let file = lookup_fd task fd in
      file.dev.ops.fop_write task file ~buf ~len)

let ioctl kernel task fd ~cmd ~arg : int result =
  Kernel.charge_syscall kernel;
  wrap (fun () ->
      let file = lookup_fd task fd in
      file.dev.ops.fop_ioctl task file ~cmd ~arg)

(** Map [len] bytes of the device at page offset [pgoff] into the
    process; returns the chosen virtual address.  The driver's mmap
    handler may populate pages eagerly with [insert_pfn] or leave them
    to the fault handler. *)
let mmap kernel task fd ~len ~pgoff : int result =
  Kernel.charge_syscall kernel;
  wrap (fun () ->
      if len <= 0 || len mod Memory.Addr.page_size <> 0 then
        Errno.fail Errno.EINVAL "mmap: length must be a positive page multiple";
      let file = lookup_fd task fd in
      let gva = task.mmap_cursor in
      task.mmap_cursor <- gva + len + Memory.Addr.page_size;
      let vma = { vma_start = gva; vma_len = len; vma_file = file; vma_pgoff = pgoff } in
      file.dev.ops.fop_mmap task file vma;
      task.vmas <- vma :: task.vmas;
      gva)

let find_vma task gva =
  List.find_opt
    (fun v -> gva >= v.vma_start && gva < v.vma_start + v.vma_len)
    task.vmas

(** Handle a page fault inside a device mapping: dispatch to the
    driver's fault handler (§2.1's "mmap ... and its supporting page
    fault handler"). *)
let handle_fault _kernel task ~gva : unit result =
  wrap (fun () ->
      match find_vma task gva with
      | None -> Errno.fail Errno.EFAULT "fault outside any vma"
      | Some vma ->
          vma.vma_file.dev.ops.fop_fault task vma.vma_file vma
            ~gva:(Memory.Addr.align_down gva))

(** Unmap a device mapping.  The guest kernel destroys its own
    page-table leaves {e before} the driver (and hypervisor) learn of
    the unmap (§5.2); the driver VM side is torn down by the CVD. *)
let munmap kernel task ~gva : unit result =
  Kernel.charge_syscall kernel;
  wrap (fun () ->
      match find_vma task gva with
      | None -> Errno.fail Errno.EINVAL "munmap: no such mapping"
      | Some vma ->
          List.iter
            (fun (addr, _) -> ignore (Memory.Guest_pt.unmap task.pt ~gva:addr))
            (Memory.Addr.page_chunks ~addr:vma.vma_start ~len:vma.vma_len);
          task.vmas <- List.filter (fun v -> v != vma) task.vmas;
          (* tell the driver only after the guest page tables are gone
             (§5.2's unmap ordering) *)
          vma.vma_file.dev.ops.fop_vma_close task vma.vma_file vma)

(** User-space memory access with demand paging: on a fault inside a
    device VMA, run the driver fault handler and retry — this is the
    application's load/store path over mmap'd device memory. *)
let rec user_read kernel task ~gva ~len =
  try Task.read_mem task ~gva ~len
  with Memory.Fault.Page_fault info ->
    (match handle_fault kernel task ~gva:info.Memory.Fault.addr with
    | Ok () -> ()
    | Error e -> Errno.fail e "unresolvable fault");
    user_read kernel task ~gva ~len

let rec user_write kernel task ~gva data =
  try Task.write_mem task ~gva data
  with Memory.Fault.Page_fault info ->
    (match handle_fault kernel task ~gva:info.Memory.Fault.addr with
    | Ok () -> ()
    | Error e -> Errno.fail e "unresolvable fault");
    user_write kernel task ~gva data

(** Poll an open file: block until it is readable/writable or
    [timeout] expires.  Drivers return the current event mask plus the
    wait queue to sleep on; the VFS loops, like the kernel's poll
    core.  Driver errors propagate as {!Errno.Unix_error}. *)
let poll_file kernel task file ~want_in ~want_out ~timeout =
  let deadline_left = ref timeout in
  let rec loop () =
    let r = file.dev.ops.fop_poll task file ~want_in ~want_out in
    let ready = (want_in && r.pollin) || (want_out && r.pollout) in
    if ready || !deadline_left <= 0. then r
    else
      match r.poll_wq with
      | None -> r
      | Some wq ->
          let before = Sim.Engine.now (Kernel.engine kernel) in
          let woken = Wait_queue.sleep_timeout wq ~timeout:!deadline_left in
          let elapsed = Sim.Engine.now (Kernel.engine kernel) -. before in
          deadline_left := !deadline_left -. elapsed;
          if woken then loop () else file.dev.ops.fop_poll task file ~want_in ~want_out
  in
  loop ()

(** The poll system call: {!poll_file} on descriptor [fd]. *)
let poll kernel task fd ~want_in ~want_out ~timeout : poll_result result =
  Kernel.charge_syscall kernel;
  wrap (fun () -> poll_file kernel task (lookup_fd task fd) ~want_in ~want_out ~timeout)

(** Register/unregister for asynchronous notification (fasync, §2.1);
    the driver delivers events via {!kill_fasync}. *)
let fasync kernel task fd ~on : unit result =
  Kernel.charge_syscall kernel;
  wrap (fun () ->
      let file = lookup_fd task fd in
      file.dev.ops.fop_fasync task file ~on;
      if on then begin
        if not (List.memq task file.fasync_subscribers) then
          file.fasync_subscribers <- task :: file.fasync_subscribers
      end
      else
        file.fasync_subscribers <-
          List.filter (fun t -> t != task) file.fasync_subscribers)

(** Driver-side: notify every subscribed process with SIGIO. *)
let kill_fasync file = List.iter Task.deliver_sigio file.fasync_subscribers
