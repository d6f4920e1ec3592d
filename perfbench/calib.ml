(* Host-speed reference.  On a shared host the program's speed drifts with
   its neighbours' use of the caches it shares with them, by 1.3-2x over
   seconds to minutes; the CPU clock itself stays put.  A fixed kernel of
   the benchmark's own — hash-table inserts and lookups, list building and
   sorting: allocation- and pointer-heavy OCaml like the program's — slows
   with it, so the run times a burst of kernel slices every ~50 ms of ops
   and reports each time scaled by [reference] / (the kernel's median in
   the same block of ~1 s).  The figures read as milliseconds on a host
   where the kernel takes [reference]; a change to the program moves them
   in full, since the kernel calls no program code. *)

let reference = 1.2e-3
(* seconds: the kernel's median on a 2-vCPU Intel Xeon VM (the host the
   bounds were fixed on), so figures there read close to wall time *)

let kernel () =
  let h = Hashtbl.create 16 in
  for i = 0 to 3999 do
    Hashtbl.replace h ((i * 7919) land 65535) (float_of_int i)
  done;
  let hits = ref 0 in
  for i = 0 to 3999 do
    if Hashtbl.mem h ((i * 31) land 65535) then incr hits
  done;
  let l = List.sort compare (List.init 2000 (fun i -> (i * 7919) land 4095)) in
  !hits + List.hd l

let sink = ref 0

(* One burst: an emptied minor heap, then slices that together allocate
   less than it holds (a slice allocates about 100k words; the default
   minor heap holds 256k), so no collection runs inside a timed slice and
   the kernel's time does not depend on the program's heap. *)
let slices = 2

let burst () =
  Gc.minor ();
  List.init slices (fun _ ->
      let t0 = Obs.Clock.now () in
      sink := !sink + kernel ();
      Obs.Clock.now () -. t0)
