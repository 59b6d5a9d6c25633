(* Host time in reference seconds.  The container's vCPUs share their
   machine, and their speed drifts by up to 2x over seconds while other
   tenants run, so raw wall-clock rates do not repeat.  A fixed kernel
   that no program change can touch is therefore timed in slices
   interleaved with the work being measured, and host times are scaled
   by its speed: a reference second is the time in which the kernel
   runs [nominal_rate] slices.  The kernel is dependent loads over a
   64 KiB table plus integer work: of the table sizes tried, from 512 B
   to 32 MiB, this one's speed tracked the simulator's best, halving the
   window-to-window variation of noop and fleet throughput.  It does not
   allocate, so the program's own GC work never lands inside a slice. *)

let table_bits = 13
let loads_per_slice = 20_000

(* Slices per second on the 2-vCPU development host when quiet; it
   only sets the scale of the reported numbers. *)
let nominal_rate = 20_000.

type t = {
  table : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable pos : int;
  mutable sink : int;
}

(* One random cycle through every slot (Sattolo's algorithm), so each
   load depends on the previous one. *)
let create () =
  let n = 1 lsl table_bits in
  let table = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set table i i
  done;
  let rng = Random.State.make [| 0x5eed |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng i in
    let t = Bigarray.Array1.unsafe_get table i in
    Bigarray.Array1.unsafe_set table i (Bigarray.Array1.unsafe_get table j);
    Bigarray.Array1.unsafe_set table j t
  done;
  { table; pos = 0; sink = 0 }

(* Run one slice; its host time in ns. *)
let slice t =
  let h0 = Probe.now_ns () in
  let pos = ref t.pos and acc = ref t.sink in
  for i = 1 to loads_per_slice do
    pos := Bigarray.Array1.unsafe_get t.table !pos;
    acc := (!acc * 31) + (!pos lxor i)
  done;
  t.pos <- !pos;
  t.sink <- !acc;
  Probe.now_ns () - h0

(* A gauge accumulates slices until it has spent [share] of [ns] of
   measured work, then converts that work to reference seconds. *)
type gauge = { mutable slices : int; mutable cal_ns : int; mutable work_ns : int }

let gauge () = { slices = 0; cal_ns = 0; work_ns = 0 }

let add_work t g ~share ns =
  g.work_ns <- g.work_ns + ns;
  while float_of_int g.cal_ns < share *. float_of_int g.work_ns do
    g.cal_ns <- g.cal_ns + slice t;
    g.slices <- g.slices + 1
  done

let absorb ~into g =
  into.slices <- into.slices + g.slices;
  into.cal_ns <- into.cal_ns + g.cal_ns;
  into.work_ns <- into.work_ns + g.work_ns

let rate g = float_of_int g.slices /. (float_of_int g.cal_ns /. 1e9)

(* The gauge's work in reference seconds. *)
let reference_s g = float_of_int g.work_ns /. 1e9 *. (rate g /. nominal_rate)
