type slots = Wire.Frame.slots = {
  mutable live : int;
  sids : int array;
  sent : string option array array array;
  delivered : string option array array array;
  faithful : bool array array;
}

type t = {
  name : string;
  direct : bool;
  exchange : round:int -> entries:slots -> unit;
  close : unit -> unit;
}

let loopback () =
  {
    name = "loopback";
    direct = true;
    exchange = (fun ~round:_ ~entries:_ -> ());
    close = ignore;
  }
