open Fx.Opened
module Al = Fx.Aliased
module M = Fx.A
include Fx.Included

let x = Fx.A.used + M.via_alias + M.Nested.used
let y = let module L = Fx.A in L.via_let_alias
