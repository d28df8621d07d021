let used = 0 and via_alias = 0 and via_let_alias = 0 and unused = 0
module Nested = struct let used = 0 and unused = 0 end
