//go:build !linux

package main

import "os"

// growPipe leaves f as it is: only Linux resizes a pipe's buffer.
func growPipe(*os.File) {}
