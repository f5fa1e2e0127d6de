type t = unit

let create () = ()
