(** The hypervisor (Type I, Figure 1(c)): owns system memory and every
    EPT, and exposes the strictly-validated memory-operation API of
    §5.2 to the driver VM. *)

type t

exception Rejected of string
(** A driver-VM request failed validation (the driver VM is assumed
    compromised, §4.1). *)

val create : Memory.Phys_mem.t -> t
val phys : t -> Memory.Phys_mem.t
val audit : t -> Audit.t
val vms : t -> Vm.t list

(** Toggle the fault-isolation runtime checks (ablation only). *)
val set_validation : t -> bool -> unit

(** Span sink used by memory-operation callers (e.g. the driver VM's
    [Uaccess] remote path); defaults to {!Obs.Trace.disabled}.
    {!Machine.create} points it at [Config.tracer]. *)
val set_tracer : t -> Obs.Trace.t -> unit

val tracer : t -> Obs.Trace.t

(** Create a VM with RAM mapped 1:1 from guest-physical 0. *)
val create_vm : t -> name:string -> kind:Vm.kind -> mem_bytes:int -> Vm.t

(** Mark a VM dead (crash or explicit kill): its memory-operation
    requests are rejected from now on. *)
val kill_vm : t -> Vm.t -> unit

(** Destroy every cross-VM mapping installed into [target] via
    {!map_page_into_process} (EPT unmap + guest-leaf clear + gpa
    unreserve); returns how many were destroyed.  Part of crash
    recovery: a rebooted driver VM must not inherit stale mappings. *)
val teardown_vm_mappings : t -> target:Vm.t -> int

(** Re-validate every cross-VM mapping installed into [target] after a
    planned driver-VM handoff: a mapping survives iff its owning
    process is still registered, its guest leaf still resolves to the
    recorded gpa, and the EPT still backs it; anything else is torn
    down as {!teardown_vm_mappings} would.  Returns [(kept, dropped)]. *)
val revalidate_vm_mappings : t -> target:Vm.t -> int * int

(** {1 Grant tables} *)

val setup_grant_table : t -> Vm.t -> Grant_table.t
val grant_table_of : t -> Vm.t -> Grant_table.t option

(** {1 Guest process registry}

    How the hypervisor resolves the process a forwarded operation
    names (the real system reads the guest CR3 at trap time). *)

val register_process : t -> Vm.t -> pid:int -> pt:Memory.Guest_pt.t -> unit
val find_process_pt : t -> Vm.t -> pid:int -> Memory.Guest_pt.t option

(** {1 The memory-operation API (§5.2)}

    Every call validates the caller (driver VM only) and the grant
    reference against the target guest's table; failures raise
    {!Rejected} and are audited. *)

type request = {
  caller : Vm.t;
  target : Vm.t;
  pt : Memory.Guest_pt.t; (** target process's page table *)
  grant_ref : int;
}

(** The driver's [copy_from_user] against a remote process. *)
val copy_from_process : t -> request -> gva:int -> len:int -> bytes

(** The driver's [copy_to_user] against a remote process. *)
val copy_to_process : t -> request -> gva:int -> data:bytes -> unit

(** Zero-copy variants: the bytes move between guest frames and a
    caller-supplied buffer with no intermediate allocation — the
    data-plane fast path. *)
val copy_from_process_into :
  t -> request -> gva:int -> dst:bytes -> dst_off:int -> len:int -> unit

val copy_to_process_from :
  t -> request -> gva:int -> src:bytes -> src_off:int -> len:int -> unit

(** Back one page of a process mapping: pick an unused guest-physical
    page, point the EPT at [spa], fix the guest page table's last
    level (the frontend prepared the others). *)
val map_page_into_process :
  t -> request -> gva:int -> spa:int -> perms:Memory.Perm.t -> unit

(** Tear down a {!map_page_into_process} mapping.  Validated against
    the caller like every other memory-operation hypercall. *)
val unmap_page_from_process : t -> request -> gva:int -> unit

val mapped_via_hypervisor : t -> target:Vm.t -> pt:Memory.Guest_pt.t -> gva:int -> bool
