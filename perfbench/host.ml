(* Host-speed normalisation of the end-to-end times.

   On a shared 2-vCPU x86-64 host the same Π_ℤ session runs up to 1.8x
   slower for minutes at a time, from contention the process cannot see: a
   pure arithmetic loop keeps its speed while allocation-heavy code does
   not.  A run is shorter than such a phase, so raw wall times spread by up
   to 0.3 of their median between runs.  [sample] times a fixed
   allocation-heavy kernel that shares no code with the library, and [scale]
   converts a wall time to the host speed at which that kernel takes
   [nominal_ns], using the median of the last five samples.  On a
   four-minute timeline of fault_mix sessions with a sample before each one,
   the interquartile spread of 20-second session medians fell from 0.038 of
   their median raw to 0.010 scaled, and their range from 0.17 to 0.05.

   The scaled times are still milliseconds, at that nominal speed; the raw
   kernel times are printed with every run. *)

let nominal_ns = 2.5e6

(* Lists, boxed integers, a hash table and a sort: short-lived allocation and
   pointer chasing, the profile of a protocol session. *)
let kernel () =
  let acc = ref 0 in
  for r = 1 to 3 do
    let l = List.init 2000 (fun i -> (i * r, Int64.of_int i)) in
    let h = Hashtbl.create 64 in
    List.iter (fun (a, b) -> Hashtbl.replace h (a land 1023) b) (List.rev l);
    let arr = Array.of_list (List.map (fun (a, _) -> a * 3) l) in
    Array.sort compare arr;
    acc := !acc + arr.(r) + Hashtbl.length h
  done;
  !acc

let window = Array.make 5 0
let factor = ref 1.
let samples = ref []

(* Minor words the kernel allocated, to keep them out of the workload's. *)
let words = ref 0.

(* The kernel allocates a fifth of the default minor heap; emptying the heap
   first keeps the workload's own collections out of the kernel's time. *)
let sample () =
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Layers.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  let d = Layers.now_ns () - t0 in
  words := !words +. (Gc.minor_words () -. w0);
  let count = List.length !samples in
  window.(count mod 5) <- d;
  samples := d :: !samples;
  let w = Array.sub window 0 (min 5 (count + 1)) in
  Array.sort compare w;
  factor := nominal_ns /. float w.(Array.length w / 2)

let scale ns = float ns *. !factor

let report () =
  let xs = List.map (fun d -> float d /. 1e6) !samples in
  let a = Array.of_list xs in
  Array.sort compare a;
  if Array.length a > 0 then
    Printf.printf "# host: reference kernel median %.3f ms over %d samples (nominal %.3f ms)\n"
      a.(Array.length a / 2) (Array.length a) (nominal_ns /. 1e6)
