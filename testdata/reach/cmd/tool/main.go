// Command tool is the fixture's only main.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	fmt.Println(lib.Used(), lib.NewSquare(3).Area(), lib.SysIssued, lib.Green)
}
