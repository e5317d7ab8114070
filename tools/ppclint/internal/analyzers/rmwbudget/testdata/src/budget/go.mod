module budget

go 1.22
