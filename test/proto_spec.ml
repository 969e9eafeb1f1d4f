(* Reference specification of the protocol combinators: the free-monad
   [Proto] the library had before protocols were written in
   continuation-passing style, frozen. Every combinator builds the reified
   [Net.Proto.t] directly, and [bind] re-wraps each [Step] of its first
   argument for as long as that argument runs. test_proto.ml builds random
   protocols with both and requires the same rounds, messages, label and
   probe events and result. Never edit this file to make that test pass. *)

open Net

type 'a m = 'a Proto.t

let run m = m
let return x = Proto.Done x

let rec bind m f =
  match m with
  | Proto.Done x -> f x
  | Proto.Step (out, k) -> Proto.Step (out, fun inbox -> bind (k inbox) f)
  | Proto.Push (l, rest) -> Proto.Push (l, bind rest f)
  | Proto.Pop rest -> Proto.Pop (bind rest f)
  | Proto.Probe (key, value, rest) -> Proto.Probe (key, value, bind rest f)

let map m f = bind m (fun x -> return (f x))
let exchange out = Proto.Step (out, fun inbox -> Proto.Done inbox)

let broadcast msg =
  let m = Some msg in
  exchange (fun _ -> m)

let receive_only () = exchange (fun _ -> None)
let with_label label m = Proto.Push (label, bind m (fun x -> Proto.Pop (Proto.Done x)))
let probe key value = Proto.Probe (key, value, Proto.Done ())

let encode_mux slots =
  if Array.for_all Option.is_none slots then None
  else
    Some
      (Wire.encode
         (Wire.w_list (Wire.w_option Wire.w_bytes) (Array.to_list slots)))

let r_mux_slot = Wire.r_option (Wire.r_bytes ())

let decode_mux ~branches raw =
  match raw with
  | None -> Array.make branches None
  | Some raw -> (
      match Wire.decode_full (Wire.r_list ~max:branches r_mux_slot) raw with
      | Some slots when List.length slots = branches -> Array.of_list slots
      | Some _ | None -> Array.make branches None)

let rec strip_labels = function
  | Proto.Push (_, m) | Proto.Pop m | Proto.Probe (_, _, m) -> strip_labels m
  | (Proto.Done _ | Proto.Step _) as m -> m

let parallel protocols =
  let branches = List.length protocols in
  if branches = 0 then invalid_arg "Proto.parallel: no branches";
  let rec advance states =
    let states = Array.map strip_labels states in
    if Array.for_all (function Proto.Done _ -> true | _ -> false) states then
      Proto.Done
        (Array.to_list
           (Array.map (function Proto.Done v -> v | _ -> assert false) states))
    else
      let out recipient =
        encode_mux
          (Array.map
             (function Proto.Step (out, _) -> out recipient | _ -> None)
             states)
      in
      Proto.Step
        ( out,
          fun inbox ->
            let split = Array.map (fun raw -> decode_mux ~branches raw) inbox in
            advance
              (Array.mapi
                 (fun b state ->
                   match state with
                   | Proto.Step (_, k) -> k (Array.map (fun slots -> slots.(b)) split)
                   | done_ -> done_)
                 states) )
  in
  advance (Array.of_list (List.map strip_labels protocols))

let both a b =
  map
    (parallel [ map a (fun x -> `A x); map b (fun y -> `B y) ])
    (function
      | [ `A x; `B y ] -> (x, y)
      | [ `B y; `A x ] -> (x, y)
      | _ -> assert false)
