(** Process management: creation, user-memory buffers, raw access,
    SIGIO delivery and the remote marking the CVD backend uses. *)

open Defs

val user_heap_base : int
val user_heap_size : int
val mmap_base : int

(** [pid] and [pt_id] come from the owning kernel's per-VM counters
    (see {!Kernel.spawn_task}); the hypervisor keys per-process state
    by [(vm id, pid)], so per-VM uniqueness is all that is needed. *)
val create : pid:int -> pt_id:int -> name:string -> vm:Hypervisor.Vm.t -> task

(** Allocate process memory (page-granular backing from VM RAM);
    returns the user virtual address. *)
val alloc_buf : task -> int -> int

(** Release a buffer from {!alloc_buf}: its backing pages return to
    the VM and its whole VA range to the next [alloc_buf] of the same
    page count. *)
val free_buf : task -> gva:int -> len:int -> unit

(** Raw user-memory access (no demand paging — see [Vfs.user_read]). *)
val read_mem : task -> gva:int -> len:int -> bytes

val write_mem : task -> gva:int -> bytes -> unit
val read_u32 : task -> gva:int -> int
val write_u32 : task -> gva:int -> int -> unit
val read_u64 : task -> gva:int -> int64
val write_u64 : task -> gva:int -> int64 -> unit

(** Asynchronous-notification delivery (§2.1). *)
val on_sigio : task -> (unit -> unit) -> unit

val deliver_sigio : task -> unit

(** Mark/unmark a thread as executing a file operation for a remote
    guest process (§5.2); [with_remote] brackets and restores. *)
val mark_remote : task -> remote_ctx -> unit

val unmark_remote : task -> unit
val with_remote : task -> remote_ctx -> (unit -> 'a) -> 'a
